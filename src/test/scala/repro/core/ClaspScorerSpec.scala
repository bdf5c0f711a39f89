package repro.core

import repro.SparkSpec
import repro.data.SyntheticCorpus

class ClaspScorerSpec extends SparkSpec {

  private val NoMinScore = Double.NegativeInfinity

  private def buildKnn(xs: Array[Double], d: Int, w: Int, k: Int): StreamingKnn = {
    val knn = new StreamingKnn(d, w, k)
    xs.foreach(knn.update)
    assert(knn.ready, "knn must be ready for scorer tests")
    knn
  }

  /** The split `score` must return for a scope of `m` subsequences whose
    * profile (entry `zc - 1` for split `zc`) is `profile`: the first maximum
    * over the splits admissible at `exclRadius`, if it reaches `minScore`.
    */
  private def expected(profile: IndexedSeq[Double], m: Int, w: Int, exclRadius: Int,
                       minScore: Double): SplitScore = {
    val margin = math.max(0, (exclRadius - 1) * w + 1)
    val admissible = math.max(1, margin) to math.min(profile.size, m - margin)
    if (admissible.isEmpty) return SplitScore(-1, 0.0, math.max(0, m))
    var bestZc = admissible.head
    admissible.foreach(zc => if (profile(zc - 1) > profile(bestZc - 1)) bestZc = zc)
    if (profile(bestZc - 1) >= minScore) SplitScore(bestZc, profile(bestZc - 1), m)
    else SplitScore(-1, 0.0, m)
  }

  private def labels(scorer: ClaspScorer, res: SplitScore): Seq[Int] = scorer.yPred.take(res.numSubseq).toSeq

  private def compareWithNaive(xs: Array[Double], d: Int, w: Int, k: Int,
                               scopeStarts: Seq[Int], f: String): Unit = {
    val knn = buildKnn(xs, d, w, k)
    val scorer = new ClaspScorer(d - w + 1)
    scopeStarts.foreach { s0 =>
      val naive = Reference.naiveProfile(knn, s0, w, f == ScoreFunction.MacroF1)
      assert(naive.nonEmpty, s"scope=$s0 has no split")
      val m = knn.numRows - s0
      val want = expected(naive, m, w, 1, NoMinScore)
      val res = scorer.score(knn, s0, f, 1, NoMinScore)
      assert(res == want, s"scope=$s0")
      assert(labels(scorer, res) == Reference.naiveYPred(knn, s0, res.bestZeroCount), s"scope=$s0 labels")
      assert(scorer.score(knn, s0, f, 1, want.bestScore) == want, s"scope=$s0 at the best score")
      assert(scorer.score(knn, s0, f, 1, math.nextUp(want.bestScore)) == SplitScore(-1, 0.0, m),
        s"scope=$s0 above the best score")
    }
  }

  test("incremental profile equals the naive recomputation (gaussian, F1)") {
    val xs = Reference.Signals.gaussian(300, 21)
    compareWithNaive(xs, 140, 8, 3, Seq(0, 5, 20), ScoreFunction.MacroF1)
  }

  test("incremental profile equals the naive recomputation (gaussian, accuracy)") {
    val xs = Reference.Signals.gaussian(300, 22)
    compareWithNaive(xs, 140, 8, 3, Seq(0, 5, 20), ScoreFunction.Accuracy)
  }

  test("incremental profile equals the naive recomputation (periodic)") {
    val xs = Reference.Signals.noisySine(400, 20, 0.1, 23)
    compareWithNaive(xs, 160, 10, 3, Seq(0, 13), ScoreFunction.MacroF1)
  }

  test("incremental profile equals the naive recomputation (regime change)") {
    val xs = Reference.Signals.twoRegimes(400, 200, 18, 45, 0.05, 24)
    compareWithNaive(xs, 180, 10, 3, Seq(0, 7, 31), ScoreFunction.MacroF1)
  }

  test("incremental profile equals the naive recomputation (k = 1)") {
    val xs = Reference.Signals.gaussian(260, 25)
    compareWithNaive(xs, 120, 7, 1, Seq(0, 3), ScoreFunction.MacroF1)
  }

  test("incremental profile equals the naive recomputation (k = 2)") {
    // Even k: a subsequence predicts 0 on a tie (2 * zeros >= k).
    val xs = Reference.Signals.gaussian(280, 37)
    compareWithNaive(xs, 130, 7, 2, Seq(0, 4, 19), ScoreFunction.MacroF1)
  }

  test("incremental profile equals the naive recomputation (k = 4)") {
    val xs = Reference.Signals.twoRegimes(360, 180, 17, 43, 0.1, 38)
    compareWithNaive(xs, 160, 8, 4, Seq(0, 6, 25), ScoreFunction.Accuracy)
  }

  test("incremental profile equals the naive recomputation (k = 5)") {
    val xs = Reference.Signals.gaussian(320, 26)
    compareWithNaive(xs, 150, 7, 5, Seq(0, 11), ScoreFunction.MacroF1)
  }

  test("incremental profile matches naive across many seeds, mid-stream scopes") {
    for (seed <- 30 to 36) {
      val xs = Reference.Signals.gaussian(250, seed.toLong)
      compareWithNaive(xs, 120, 6, 3, Seq(0, 9), ScoreFunction.MacroF1)
    }
  }

  test("the turn-point reference sweep equals the naive profile and labels") {
    val cases = Seq(
      (Reference.Signals.gaussian(300, 21), 140, 8, 3, Seq(0, 5, 20)),
      (Reference.Signals.noisySine(400, 20, 0.1, 23), 160, 10, 3, Seq(0, 13)),
      (Reference.Signals.gaussian(260, 25), 120, 7, 1, Seq(0, 3)),
      (Reference.Signals.gaussian(280, 37), 130, 7, 2, Seq(0, 4, 19)),
      (Reference.Signals.twoRegimes(360, 180, 17, 43, 0.1, 38), 160, 8, 4, Seq(0, 6, 25)),
      (Reference.Signals.gaussian(320, 26), 150, 7, 5, Seq(0, 11)))
    for ((xs, d, w, k, scopes) <- cases; s0 <- scopes) {
      val knn = buildKnn(xs, d, w, k)
      for (useF1 <- Seq(true, false)) {
        val naive = Reference.naiveProfile(knn, s0, w, useF1)
        assert(naive.nonEmpty)
        assert(Reference.sweepProfile(knn, s0, w, useF1) == naive, s"k=$k scope=$s0 useF1=$useF1")
      }
      val turns = Reference.turnPoints(knn, s0)
      (1 to knn.numRows - s0).foreach { zc =>
        assert(turns.toSeq.map(t => if (t <= zc) 0 else 1) == Reference.naiveYPred(knn, s0, zc), s"k=$k scope=$s0 zc=$zc")
      }
    }
  }

  test("yPred holds the labels at the best split") {
    val xs = Reference.Signals.twoRegimes(350, 175, 16, 40, 0.05, 27)
    val knn = buildKnn(xs, 150, 8, 3)
    val scorer = new ClaspScorer(150 - 8 + 1)
    for (exclRadius <- Seq(1, 3, 5)) {
      val res = scorer.score(knn, 0, ScoreFunction.MacroF1, exclRadius, NoMinScore)
      assert(res.bestZeroCount >= 1)
      val naive = Reference.naiveYPred(knn, 0, res.bestZeroCount)
      val got = labels(scorer, res)
      assert(got == naive, s"exclRadius=$exclRadius zc=${res.bestZeroCount}")
      assert(got.contains(0) && got.contains(1))
    }
  }

  test("a wider exclusion radius scores only the admissible splits") {
    val cases = Seq(
      (Reference.Signals.gaussian(300, 21), 140, 8, Seq(0, 5, 20)),
      (Reference.Signals.noisySine(400, 20, 0.1, 23), 160, 10, Seq(0, 13)),
      (Reference.Signals.twoRegimes(400, 200, 18, 45, 0.05, 24), 180, 10, Seq(0, 7, 31)))
    for ((xs, d, w, scopes) <- cases; s0 <- scopes) {
      val knn = buildKnn(xs, d, w, 3)
      val scorer = new ClaspScorer(d - w + 1)
      val full = Reference.naiveProfile(knn, s0, w, useF1 = true)
      val m = knn.numRows - s0
      val margin = 4 * w + 1 // exclRadius = 5
      val (zcLo, zcHi) = (margin, math.min(full.size, m - margin))
      assert(zcLo <= zcHi, s"scope=$s0 has no admissible split")
      val admissible = (zcLo to zcHi).map(zc => full(zc - 1))
      val bestZc = zcLo + admissible.indexOf(admissible.max) // the first maximum
      val res = scorer.score(knn, s0, ScoreFunction.MacroF1, 5, NoMinScore)
      assert(res.bestZeroCount == bestZc, s"scope=$s0")
      assert(res.bestScore == full(bestZc - 1), s"scope=$s0")
      val got = labels(scorer, res)
      assert(got == Reference.naiveYPred(knn, s0, bestZc), s"scope=$s0 labels")
      assert(labels(scorer, res) == got, s"scope=$s0 labels read twice")
    }
  }

  test("too-small scopes return no split") {
    val xs = Reference.Signals.gaussian(200, 28)
    val knn = buildKnn(xs, 120, 8, 3)
    val scorer = new ClaspScorer(120 - 8 + 1)
    // Scope with fewer than w + 3 subsequences.
    val res = scorer.score(knn, knn.numRows - 9, ScoreFunction.MacroF1, 1, NoMinScore)
    assert(res == SplitScore(-1, 0.0, 9))
  }

  test("a clear regime change yields a profile peak near the true boundary") {
    // Change at absolute position 250; window covers [150, 400).
    val xs = Reference.Signals.twoRegimes(400, 250, 16, 40, 0.02, 31)
    val knn = buildKnn(xs, 250, 8, 3)
    val scorer = new ClaspScorer(250 - 8 + 1)
    val res = scorer.score(knn, 0, ScoreFunction.MacroF1, 1, NoMinScore)
    val peakAbs = knn.windowStart + res.bestZeroCount + 8 - 1
    assert(math.abs(peakAbs - 250) <= 25, s"peak at $peakAbs, truth 250")
    assert(res.bestScore > 0.8, s"score ${res.bestScore}")
  }

  test("scorer buffers are reusable across calls (no state bleed)") {
    val xs1 = Reference.Signals.gaussian(260, 32)
    val xs2 = Reference.Signals.noisySine(260, 22, 0.1, 33)
    val d = 130; val w = 7
    val knn1 = buildKnn(xs1, d, w, 3)
    val knn2 = buildKnn(xs2, d, w, 3)
    val scorer = new ClaspScorer(d - w + 1)
    scorer.score(knn1, 0, ScoreFunction.MacroF1, 1, NoMinScore)
    val second = scorer.score(knn2, 0, ScoreFunction.MacroF1, 1, NoMinScore)
    val naive = Reference.naiveProfile(knn2, 0, w, useF1 = true)
    assert(second == expected(naive, knn2.numRows, w, 1, NoMinScore))
    assert(labels(scorer, second) == Reference.naiveYPred(knn2, 0, second.bestZeroCount))
  }

  /** The scope start of a stream whose unsegmented suffix begins at the
    * absolute position `scopeAbs`: clamped to the window, as in ClaSS.
    */
  private def scopeOf(knn: StreamingKnn, scopeAbs: Long): Int = math.max(0L, scopeAbs - knn.windowStart).toInt

  test("split coverage counts equal the sweep's n10 and n01, and the descent bounds every score") {
    // Growth, fill, eviction and a rebase of the leaves; from position 0 and
    // from 2^31 - 100; a scope that jumps forward at fixed steps and is
    // clamped to the window start in between; two skipped updates.
    val (d, w) = (100, 6)
    val xs = Reference.Signals.twoRegimes(400, 200, 14, 35, 0.05, 16)
    val jumps = Set(120, 170, 260)
    val skipped = Set(230, 231)
    for (k <- 1 to 5; start <- Seq(0L, Int.MaxValue.toLong - 100)) {
      val knn = new StreamingKnn(d, w, k, start)
      val scorer = new ClaspScorer(d - w + 1)
      var scopeAbs = start
      var leaves = 0
      xs.indices.foreach { t =>
        knn.update(xs(t))
        if (jumps(t)) scopeAbs = knn.windowStart + 25
        val s0 = scopeOf(knn, scopeAbs)
        val m = knn.numRows - s0
        val zMax = m - w - 2
        if (knn.ready && zMax >= 1 && !skipped(t)) {
          val ctx = s"k=$k start=$start t=$t scope=$s0"
          scorer.sync(knn, s0)
          (1 to zMax).foreach { zc =>
            val pred = Reference.naiveYPred(knn, s0, zc)
            val n10 = (zc until m).count(pred(_) == 0)
            val n01 = (0 until zc).count(pred(_) == 1)
            assert((scorer.a(zc), scorer.b(zc)) == (n10, n01), s"$ctx zc=$zc")
          }
          for (f1 <- Seq(true, false)) {
            val exact = Reference.naiveProfile(knn, s0, w, f1)
            val best = exact.max
            val bestZc = exact.indexOf(best) + 1 // the first maximum
            for (minScore <- Seq(NoMinScore, 0.75, best)) {
              val found = scorer.best(1, zMax, f1, minScore, (lo, hi, leaf, bound) => {
                assert(lo >= 1 && hi <= zMax && lo <= hi, s"$ctx f1=$f1 range [$lo, $hi]")
                assert(bound >= (lo to hi).map(zc => exact(zc - 1)).max, s"$ctx f1=$f1 range [$lo, $hi]")
                if (leaf) {
                  leaves += 1
                  assert(lo == hi && bound == exact(lo - 1), s"$ctx f1=$f1 leaf $lo: $bound vs ${exact(lo - 1)}")
                }
              })
              assert(found == (if (best >= minScore) bestZc else -1), s"$ctx f1=$f1 minScore=$minScore best=$best")
            }
            assert(scorer.best(1, zMax, f1, math.nextUp(best)) == -1, s"$ctx f1=$f1 above the best score")
          }
        }
      }
      assert(leaves > 0)
    }
  }

  test("with minScore, a step is either rejected below it or scored exactly as the full sweep") {
    // Every step of five streams, against the reference sweep: k in {1, 3, 4},
    // both score functions, exclusion radius 1 and 5, minScore -∞ and 0.75.
    val synthetic = SyntheticCorpus.specs(42).find(s => s.dataset == "TSSB" && s.nSegments >= 3).get
    val cases = Seq(
      (Reference.Signals.twoRegimes(3000, 1500, 20, 50, 0.1, 61), 500, 20),
      (Reference.Signals.noisySine(2500, 30, 0.2, 62), 500, 30),
      (Reference.Signals.meanShift(2500, 1200, 3.0, 1.0, 63), 400, 12),
      (Reference.Signals.gaussian(1500, 64), 300, 10),
      (SyntheticCorpus.generate(synthetic).values, 2000, synthetic.widthHint))
    var passed = 0
    for ((xs, d, w) <- cases; k <- Seq(1, 3, 4)) {
      val knn = new StreamingKnn(d, w, k)
      val scorer = new ClaspScorer(d - w + 1)
      // The scope jumps forward at fixed steps, and is clamped to the window
      // start once the window passes it.
      val jumps = Set(xs.length / 3, xs.length / 2, 2 * xs.length / 3)
      var scopeAbs = 0L
      var rejected = 0
      xs.indices.foreach { t =>
        knn.update(xs(t))
        if (jumps(t)) scopeAbs = knn.windowStart + knn.numRows / 3
        if (knn.ready) {
          val s0 = scopeOf(knn, scopeAbs)
          val m = knn.numRows - s0
          val turns = Reference.turnPoints(knn, s0)
          for (f <- Seq(ScoreFunction.MacroF1, ScoreFunction.Accuracy)) {
            val profile = Reference.sweepProfile(knn, s0, w, f == ScoreFunction.MacroF1)
            for (exclRadius <- Seq(1, 5); minScore <- Seq(NoMinScore, 0.75)) {
              val ctx = s"d=$d k=$k t=$t $f exclRadius=$exclRadius minScore=$minScore"
              val want = expected(profile, m, w, exclRadius, minScore)
              val got = scorer.score(knn, s0, f, exclRadius, minScore)
              assert(got == want, ctx)
              if (got.bestZeroCount >= 0) {
                if (minScore > NoMinScore) passed += 1
                assert(labels(scorer, got) == turns.toSeq.map(t => if (t <= got.bestZeroCount) 0 else 1), ctx)
              } else if (minScore > NoMinScore && expected(profile, m, w, exclRadius, NoMinScore).bestZeroCount >= 0)
                rejected += 1
            }
          }
        }
      }
      assert(rejected > 0, s"d=$d k=$k: no step rejected")
    }
    assert(passed > 0, "no step reached minScore")
  }
}
