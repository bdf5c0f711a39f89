package repro.core

import repro.SparkSpec
import repro.data.SyntheticCorpus

class ClaspScorerSpec extends SparkSpec {

  private def buildKnn(xs: Array[Double], d: Int, w: Int, k: Int): StreamingKnn = {
    val knn = new StreamingKnn(d, w, k)
    xs.foreach(knn.update)
    assert(knn.ready, "knn must be ready for scorer tests")
    knn
  }

  private def compareWithNaive(xs: Array[Double], d: Int, w: Int, k: Int,
                               scopeStarts: Seq[Int], f: String): Unit = {
    val knn = buildKnn(xs, d, w, k)
    val scorer = new ClaspScorer(d - w + 1)
    scopeStarts.foreach { s0 =>
      val naive = Reference.naiveProfile(knn, s0, w, f == ScoreFunction.MacroF1)
      val res = scorer.score(knn, s0, f)
      assert(scorer.numSplits == naive.size, s"scope=$s0 splits ${scorer.numSplits} vs ${naive.size}")
      naive.indices.foreach { idx =>
        val zc = idx + 1
        assert(math.abs(scorer.profile(zc) - naive(idx)) < 1e-9,
          s"scope=$s0 zc=$zc incremental=${scorer.profile(zc)} naive=${naive(idx)}")
      }
      if (naive.nonEmpty) {
        val bestNaive = naive.max
        assert(math.abs(res.bestScore - bestNaive) < 1e-9)
        assert(math.abs(naive(res.bestZeroCount - 1) - bestNaive) < 1e-12)
        val labels = (0 until res.numSubseq).map(scorer.yPred(_))
        assert(labels == Reference.naiveYPred(knn, s0, res.bestZeroCount), s"scope=$s0 labels")
      }
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

  test("yPred holds the labels at the best split") {
    val xs = Reference.Signals.twoRegimes(350, 175, 16, 40, 0.05, 27)
    val knn = buildKnn(xs, 150, 8, 3)
    val scorer = new ClaspScorer(150 - 8 + 1)
    for (exclRadius <- Seq(1, 3, 5)) {
      val res = scorer.score(knn, 0, ScoreFunction.MacroF1, exclRadius = exclRadius)
      assert(res.bestZeroCount >= 1)
      val naive = Reference.naiveYPred(knn, 0, res.bestZeroCount)
      val got = (0 until res.numSubseq).map(scorer.yPred(_))
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
      scorer.score(knn, s0, ScoreFunction.MacroF1)
      val full = (1 to scorer.numSplits).map(scorer.profile)
      val m = knn.numRows - s0
      val margin = 4 * w + 1 // exclRadius = 5
      val (zcLo, zcHi) = (margin, math.min(full.size, m - margin))
      assert(zcLo <= zcHi, s"scope=$s0 has no admissible split")
      val admissible = (zcLo to zcHi).map(zc => full(zc - 1))
      val bestZc = zcLo + admissible.indexOf(admissible.max) // the first maximum
      val res = scorer.score(knn, s0, ScoreFunction.MacroF1, exclRadius = 5)
      assert(res.bestZeroCount == bestZc, s"scope=$s0")
      assert(res.bestScore == full(bestZc - 1), s"scope=$s0")
      val labels = (0 until res.numSubseq).map(scorer.yPred(_))
      assert(labels == Reference.naiveYPred(knn, s0, bestZc), s"scope=$s0 labels")
      assert((0 until res.numSubseq).map(scorer.yPred(_)) == labels, s"scope=$s0 labels read twice")
    }
  }

  test("too-small scopes return no split") {
    val xs = Reference.Signals.gaussian(200, 28)
    val knn = buildKnn(xs, 120, 8, 3)
    val scorer = new ClaspScorer(120 - 8 + 1)
    // Scope with fewer than w + 3 subsequences.
    val res = scorer.score(knn, knn.numRows - 9, ScoreFunction.MacroF1)
    assert(res.bestZeroCount == -1)
    assert(scorer.numSplits == 0)
  }

  test("profile scores stay within [0, 1]") {
    val xs = Reference.Signals.twoRegimes(400, 200, 20, 44, 0.2, 29)
    val knn = buildKnn(xs, 170, 9, 3)
    val scorer = new ClaspScorer(170 - 9 + 1)
    scorer.score(knn, 0, ScoreFunction.MacroF1)
    (1 to scorer.numSplits).foreach { zc =>
      val v = scorer.profile(zc)
      assert(v >= 0.0 && v <= 1.0, s"zc=$zc score=$v")
    }
  }

  test("a clear regime change yields a profile peak near the true boundary") {
    // Change at absolute position 250; window covers [150, 400).
    val xs = Reference.Signals.twoRegimes(400, 250, 16, 40, 0.02, 31)
    val knn = buildKnn(xs, 250, 8, 3)
    val scorer = new ClaspScorer(250 - 8 + 1)
    val res = scorer.score(knn, 0, ScoreFunction.MacroF1)
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
    scorer.score(knn1, 0, ScoreFunction.MacroF1)
    val second = scorer.score(knn2, 0, ScoreFunction.MacroF1)
    val naive = Reference.naiveProfile(knn2, 0, w, useF1 = true)
    naive.indices.foreach { idx =>
      assert(math.abs(scorer.profile(idx + 1) - naive(idx)) < 1e-9)
    }
    assert(math.abs(second.bestScore - naive.max) < 1e-9)
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
      val cov = new SplitCoverage(d - w + 1)
      val sweep = new ClaspScorer(d - w + 1)
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
          cov.sync(knn, s0)
          (1 to zMax).foreach { zc =>
            val pred = Reference.naiveYPred(knn, s0, zc)
            val n10 = (zc until m).count(pred(_) == 0)
            val n01 = (0 until zc).count(pred(_) == 1)
            assert((cov.a(zc), cov.b(zc)) == (n10, n01), s"$ctx zc=$zc")
          }
          for (f <- Seq(ScoreFunction.MacroF1, ScoreFunction.Accuracy)) {
            val best = sweep.score(knn, s0, f).bestScore
            val exact = (1 to zMax).map(sweep.profile)
            val f1 = f == ScoreFunction.MacroF1
            for (minScore <- Seq(0.75, best)) {
              val passed = !cov.rejects(1, zMax, f1, minScore, (lo, hi, leaf, bound) => {
                assert(lo >= 1 && hi <= zMax && lo <= hi, s"$ctx $f range [$lo, $hi]")
                assert(bound >= (lo to hi).map(zc => exact(zc - 1)).max, s"$ctx $f range [$lo, $hi]")
                if (leaf) {
                  leaves += 1
                  assert(lo == hi && bound == exact(lo - 1), s"$ctx $f leaf $lo: $bound vs ${exact(lo - 1)}")
                }
              })
              assert(passed == (best >= minScore), s"$ctx $f minScore=$minScore best=$best")
            }
            assert(cov.rejects(1, zMax, f1, math.nextUp(best)), s"$ctx $f above the best score")
          }
        }
      }
      assert(leaves > 0)
    }
  }

  test("with minScore, a step is either rejected below it or scored exactly as the full sweep") {
    val synthetic = SyntheticCorpus.specs(42).find(s => s.dataset == "TSSB" && s.nSegments >= 3).get
    val cases = Seq(
      (Reference.Signals.twoRegimes(3000, 1500, 20, 50, 0.1, 61), 500, 20),
      (Reference.Signals.noisySine(2500, 30, 0.2, 62), 500, 30),
      (Reference.Signals.meanShift(2500, 1200, 3.0, 1.0, 63), 400, 12),
      (Reference.Signals.gaussian(1500, 64), 300, 10),
      (SyntheticCorpus.generate(synthetic).values, 2000, synthetic.widthHint))
    var passedAll = 0
    for ((xs, d, w) <- cases) {
      val knn = new StreamingKnn(d, w, 3)
      val full = new ClaspScorer(d - w + 1)
      val pruned = new ClaspScorer(d - w + 1)
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
          val want = full.score(knn, s0, ScoreFunction.MacroF1, exclRadius = 5)
          val got = pruned.score(knn, s0, ScoreFunction.MacroF1, exclRadius = 5, minScore = 0.75)
          if (got.bestZeroCount < 0 && want.bestZeroCount >= 0) {
            rejected += 1
            assert(want.bestScore < 0.75, s"d=$d t=$t: rejected a split scoring ${want.bestScore}")
            assert(got.numSubseq == want.numSubseq)
          } else {
            assert(got == want, s"d=$d t=$t")
            if (got.bestZeroCount >= 0) {
              if (got.bestScore >= 0.75) passedAll += 1
              assert(pruned.yPred.take(got.numSubseq).toSeq == full.yPred.take(want.numSubseq).toSeq, s"d=$d t=$t")
            }
          }
        }
      }
      assert(rejected > 0, s"d=$d: no step rejected")
    }
    assert(passedAll > 0, "no step reached minScore")
  }
}
