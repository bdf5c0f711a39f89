package repro.core

import repro.SparkSpec

class StreamingKnnSpec extends SparkSpec {

  /** Feed `xs` and verify the full row contents against the naive reference
    * at every checkpoint in `checkAt` (checkpoint = number of points fed).
    */
  private def checkAgainstReference(xs: Array[Double], d: Int, w: Int, k: Int,
                                    checkAt: Seq[Int]): Unit = {
    val knn = new StreamingKnn(d, w, k)
    val excl = knn.exclusion
    var t = 0
    val targets = checkAt.toSet
    xs.foreach { x =>
      knn.update(x)
      t += 1
      if (targets.contains(t)) {
        assert(knn.ready, s"t=$t: not ready at a checkpoint")
        val expected = Reference.expectedRows(xs, t, d, w, k)
        assert(knn.numRows == expected.size, s"t=$t rows=${knn.numRows} vs ${expected.size}")
        var i = 0
        while (i < knn.numRows) {
          val a = knn.rowPos(i)
          val exp = expected(i)
          var j = 0
          while (j < k) {
            val got = knn.neighborCorr(i, j)
            assert(math.abs(got - exp(j).corr) < 1e-6,
              s"t=$t row=$i nn=$j corr $got vs ${exp(j).corr} (pos ${knn.neighborPos(i, j)} vs ${exp(j).pos})")
            val b = knn.neighborPos(i, j)
            assert(math.abs(b - a) >= excl, s"t=$t row=$i nn=$j violates exclusion: a=$a b=$b")
            assert(b >= 0 && b <= t - w, s"t=$t neighbour $b not yet arrived")
            assert(b >= a + w - d && b <= a + d - w, s"t=$t non-coexistent neighbour a=$a b=$b")
            // The stored correlation matches the data.
            assert(math.abs(got - Reference.corrAt(xs, a, b, w)) < 1e-6)
            j += 1
          }
          // Row is sorted by descending correlation.
          (1 until k).foreach(j => assert(knn.neighborCorr(i, j - 1) >= knn.neighborCorr(i, j) - 1e-12))
          i += 1
        }
      }
    }
  }

  test("matches the naive reference on gaussian noise (before the window fills)") {
    val xs = Reference.Signals.gaussian(110, 1)
    // The first ready step (w + 2*excl + k - 2 points, excl = 12): the
    // rows grown from the first subsequence on must already be exact.
    val gateLen = 8 + 2 * 12 + 3 - 2
    checkAgainstReference(xs, d = 120, w = 8, k = 3, checkAt = Seq(gateLen, 40, 60, 90, 110))
  }

  test("matches the naive reference on gaussian noise (with eviction)") {
    val xs = Reference.Signals.gaussian(400, 2)
    checkAgainstReference(xs, d = 120, w = 8, k = 3, checkAt = Seq(120, 121, 150, 250, 400))
  }

  test("matches the naive reference on a periodic signal") {
    val xs = Reference.Signals.noisySine(350, 25, 0.05, 3)
    checkAgainstReference(xs, d = 150, w = 10, k = 3, checkAt = Seq(80, 150, 220, 350))
  }

  test("matches the naive reference on a regime-change signal") {
    val xs = Reference.Signals.twoRegimes(400, 200, 20, 50, 0.1, 4)
    checkAgainstReference(xs, d = 160, w = 10, k = 3, checkAt = Seq(100, 200, 300, 400))
  }

  test("matches the naive reference for k = 1") {
    val xs = Reference.Signals.gaussian(300, 5)
    checkAgainstReference(xs, d = 100, w = 6, k = 1, checkAt = Seq(50, 100, 200, 300))
  }

  test("matches the naive reference for k = 5") {
    val xs = Reference.Signals.gaussian(300, 6)
    checkAgainstReference(xs, d = 130, w = 6, k = 5, checkAt = Seq(60, 130, 210, 300))
  }

  test("matches the naive reference across many random seeds") {
    for (seed <- 10 to 19) {
      val xs = Reference.Signals.gaussian(260, seed.toLong)
      checkAgainstReference(xs, d = 110, w = 7, k = 3, checkAt = Seq(90, 180, 260))
    }
  }

  test("matches the naive reference at offsets +1e6 and +1e8") {
    for (off <- Seq(1e6, 1e8)) {
      checkAgainstReference(Reference.Signals.gaussian(400, 2).map(_ + off),
        d = 120, w = 8, k = 3, checkAt = Seq(60, 120, 250, 400))
      checkAgainstReference(Reference.Signals.noisySine(350, 25, 0.05, 3).map(_ + off),
        d = 150, w = 10, k = 3, checkAt = Seq(150, 350))
    }
  }

  test("a kryo round trip keeps rows bit-identical") {
    val kryo = new org.apache.spark.serializer.KryoSerializer(new org.apache.spark.SparkConf(false)).newInstance()
    val d = 150; val w = 10
    val xs = Reference.Signals.twoRegimes(500, 250, 25, 40, 0.1, 14).map(_ + 1e3)
    def bits(knn: StreamingKnn): Seq[Long] =
      Seq(knn.windowStart, knn.numRows.toLong) ++
        (0 until knn.numRows).flatMap(i => knn.turnPositions(i).toLong +: (0 until 3).flatMap(j =>
          Seq(knn.neighborPos(i, j).toLong, java.lang.Double.doubleToRawLongBits(knn.neighborCorr(i, j)))))
    // Before the first subsequence, while the window grows, as it fills, after eviction.
    for (cut <- Seq(5, 80, 150, 300)) {
      val a = new StreamingKnn(d, w, 3)
      xs.take(cut).foreach(a.update)
      val b = kryo.deserialize[StreamingKnn](kryo.serialize(a))
      xs.indices.drop(cut).foreach { t =>
        a.update(xs(t)); b.update(xs(t))
        assert(bits(a) == bits(b), s"cut $cut: differs after point $t")
      }
    }
  }

  test("each row's turn position is the ceil(k/2)-th smallest of its neighbour positions") {
    // Growth, fill and eviction, from position 0 and from 2^31 - 100.
    val xs = Reference.Signals.twoRegimes(300, 150, 14, 35, 0.05, 16)
    for (k <- 1 to 5; start <- Seq(0L, Int.MaxValue.toLong - 100)) {
      val knn = new StreamingKnn(100, 6, k, start)
      val h = (k + 1) / 2
      xs.zipWithIndex.foreach { case (x, t) =>
        knn.update(x)
        (0 until knn.numRows).foreach { i =>
          val self = knn.rowPos(i)
          val offsets = (0 until k).map(j => knn.neighborPos(i, j) - self).sorted
          assert(knn.turnPositions(i) - self == offsets(h - 1),
            s"k=$k start=$start t=$t row=$i: turn ${knn.turnPositions(i) - self}, offsets $offsets")
        }
      }
    }
  }

  test("positions past 2^31 points keep their value") {
    val start = Int.MaxValue.toLong - 100
    val xs = Reference.Signals.twoRegimes(400, 200, 16, 40, 0.05, 15)
    val a = new StreamingKnn(120, 8, 3)
    val b = new StreamingKnn(120, 8, 3, start)
    val scorer = new ClaspScorer(120 - 8 + 1)
    xs.foreach { x =>
      a.update(x); b.update(x)
      assert(b.windowStart == a.windowStart + start)
      if (a.ready) assert(scorer.score(a, 0, ScoreFunction.MacroF1, 1, Double.NegativeInfinity) ==
        scorer.score(b, 0, ScoreFunction.MacroF1, 1, Double.NegativeInfinity))
    }
  }

  test("not ready before the warm-up gate, ready right after") {
    val knn = new StreamingKnn(120, 8, 3)
    // gate: e >= 2*excl + k - 2 with excl = 12 -> e >= 25 -> len >= 33
    val gateLen = 8 + 2 * knn.exclusion + 3 - 2
    val xs = Reference.Signals.gaussian(gateLen + 5, 7)
    var fed = 0
    xs.foreach { x =>
      knn.update(x)
      fed += 1
      if (fed < gateLen) assert(!knn.ready, s"ready too early at $fed")
      if (fed >= gateLen) assert(knn.ready, s"not ready at $fed")
    }
  }

  test("row count tracks in-window subsequences and caps at d - w + 1") {
    val d = 100; val w = 6
    val knn = new StreamingKnn(d, w, 3)
    val xs = Reference.Signals.gaussian(250, 8)
    var t = 0
    xs.foreach { x =>
      knn.update(x)
      t += 1
      if (knn.ready) {
        val expect = math.min(t, d) - w + 1
        assert(knn.numRows == expect, s"t=$t rows=${knn.numRows} expected=$expect")
      }
    }
    assert(knn.numRows == d - w + 1)
  }

  test("windowStart advances once the window is full") {
    val knn = new StreamingKnn(100, 6, 3)
    val xs = Reference.Signals.gaussian(150, 9)
    xs.foreach(knn.update)
    assert(knn.windowStart == 50)
    assert(knn.length == 100)
  }

  test("stored correlations are clamped to [-1, 1]") {
    val knn = new StreamingKnn(100, 6, 3)
    Reference.Signals.noisySine(300, 12, 0.0, 11).foreach(knn.update)
    for (i <- 0 until knn.numRows; j <- 0 until 3) {
      val c = knn.neighborCorr(i, j)
      assert(c >= -1.0 && c <= 1.0)
    }
  }

  test("constant stretches do not produce NaN correlations") {
    val xs = Array.tabulate(300)(i => if (i % 60 < 30) 0.0 else math.sin(i / 3.0))
    val knn = new StreamingKnn(100, 6, 3)
    xs.foreach(knn.update)
    for (i <- 0 until knn.numRows; j <- 0 until 3) {
      assert(!knn.neighborCorr(i, j).isNaN)
    }
  }

  test("parameter validation") {
    intercept[IllegalArgumentException] { new StreamingKnn(10, 5, 3) } // d too small
    intercept[IllegalArgumentException] { new StreamingKnn(100, 2, 3) } // w too small
    intercept[IllegalArgumentException] { new StreamingKnn(100, 5, 0) } // bad k
  }

  test("neighbour positions may fall left of the window (negative offsets kept)") {
    val d = 90; val w = 6
    val knn = new StreamingKnn(d, w, 3)
    val xs = Reference.Signals.noisySine(400, 15, 0.02, 12)
    xs.foreach(knn.update)
    // After long streaming some rows should reference evicted (out-of-window)
    // subsequences - the paper's "negative offsets are class zero" case.
    val anyOutOfWindow = (0 until knn.numRows).exists { i =>
      (0 until 3).exists(j => knn.neighborPos(i, j) < knn.windowStart)
    }
    assert(anyOutOfWindow, "expected at least one out-of-window neighbour reference")
  }
}
