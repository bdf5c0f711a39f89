package repro.core

import repro.SparkSpec

class MathUtilSpec extends SparkSpec {

  test("erfc at zero is one") {
    assert(math.abs(MathUtil.erfc(0.0) - 1.0) < 1e-7)
  }

  test("erfc known values") {
    // Reference values (Abramowitz & Stegun): erfc(0.5), erfc(1), erfc(2)
    assert(math.abs(MathUtil.erfc(0.5) - 0.4795001222) < 1e-6)
    assert(math.abs(MathUtil.erfc(1.0) - 0.1572992071) < 1e-6)
    assert(math.abs(MathUtil.erfc(2.0) - 0.0046777350) < 1e-7)
  }

  test("erfc negative arm via symmetry erfc(-x) = 2 - erfc(x)") {
    for (x <- Seq(0.3, 1.1, 2.7)) {
      assert(math.abs(MathUtil.erfc(-x) - (2 - MathUtil.erfc(x))) < 1e-9)
    }
  }

  test("erfc deep tail retains relative accuracy against the asymptotic expansion") {
    // erfc(x) ~ exp(-x^2) / (x sqrt(pi)) * (1 - 1/(2x^2) + 3/(4x^4))
    for (x <- Seq(5.0, 10.0, 15.0, 20.0)) {
      val asym = math.exp(-x * x) / (x * math.sqrt(math.Pi)) *
        (1 - 1 / (2 * x * x) + 3 / (4 * math.pow(x, 4)))
      val rel = math.abs(MathUtil.erfc(x) - asym) / asym
      assert(rel < 1e-3, s"x=$x rel=$rel")
    }
  }

  test("normalTwoSidedP covers the 1e-50 significance regime without underflow") {
    val p15 = MathUtil.normalTwoSidedP(15.0)
    assert(p15 > 0.0 && p15 < 1e-49)
    val p14 = MathUtil.normalTwoSidedP(14.0)
    assert(p14 > 1e-50) // z=14 is just outside the paper's threshold
  }

  test("normalTwoSidedP is monotone decreasing in |z| and starts at 1") {
    val ps = (0 to 30).map(z => MathUtil.normalTwoSidedP(z.toDouble))
    assert(ps == ps.sortBy(-_))
    assert(math.abs(ps.head - 1.0) < 1e-7)
  }

  test("windowStd from running sums matches direct computation") {
    val xs = Reference.Signals.gaussian(200, 1)
    for (i <- Seq(0, 17, 150); w <- Seq(5, 20, 50)) {
      val slice = xs.slice(i, i + w)
      val m = slice.sum / w
      val sd = math.sqrt(slice.map(v => (v - m) * (v - m)).sum / w)
      assert(math.abs(MathUtil.windowStd(slice.sum, slice.map(v => v * v).sum, w) - sd) < 1e-7)
    }
  }

  test("windowStd floors tiny negative variance at zero") {
    val xs = Array.fill(20)(3.14159)
    val (sum, sumSq) = (xs.sum, xs.map(v => v * v).sum)
    assert(sumSq / 20 - (sum / 20) * (sum / 20) < 0.0) // cancellation
    assert(MathUtil.windowStd(sum, sumSq, 20) == 0.0)
  }

  test("slidingMin/slidingMax match naive over many random inputs") {
    val rng = new Rng(99)
    for (trial <- 0 until 50) {
      val n = 5 + rng.nextInt(76)
      val w = 1 + rng.nextInt(n)
      val xs = Array.fill(n)(rng.nextDouble() * 200 - 100)
      val mins = MathUtil.slidingMin(xs, n, w)
      val maxs = MathUtil.slidingMax(xs, n, w)
      (0 to n - w).foreach { i =>
        assert(mins(i) == xs.slice(i, i + w).min, s"trial=$trial i=$i w=$w")
        assert(maxs(i) == xs.slice(i, i + w).max, s"trial=$trial i=$i w=$w")
      }
    }
  }

  test("slidingMin handles duplicated values") {
    val xs = Array(2.0, 2.0, 1.0, 1.0, 3.0, 1.0)
    assert(MathUtil.slidingMin(xs, 6, 2).toSeq == Seq(2.0, 1.0, 1.0, 1.0, 1.0))
  }

  test("slidingMin rejects invalid windows") {
    intercept[IllegalArgumentException] {
      MathUtil.slidingMin(Array(1.0, 2.0), 2, 3)
    }
  }

  test("pearson of a series with itself is 1") {
    val xs = Reference.Signals.gaussian(64, 2)
    assert(math.abs(Reference.pearson(xs, xs) - 1.0) < 1e-9)
  }

  test("pearson of a series with its negation is -1") {
    val xs = Reference.Signals.gaussian(64, 3)
    assert(math.abs(Reference.pearson(xs, xs.map(-_)) + 1.0) < 1e-9)
  }

  test("pearson is shift and scale invariant in either argument") {
    val xs = Reference.Signals.gaussian(64, 4)
    val ys = Reference.Signals.gaussian(64, 5)
    val base = Reference.pearson(xs, ys)
    assert(math.abs(base - Reference.pearson(xs.map(v => 3.0 * v + 7.0), ys)) < 1e-9)
    assert(math.abs(base - Reference.pearson(xs, ys.map(v => 0.5 * v - 2.0))) < 1e-9)
  }

  test("pearson keeps its value at large offsets") {
    val xs = Reference.Signals.gaussian(64, 7)
    val ys = Reference.Signals.noisySine(64, 16, 0.3, 8)
    val base = Reference.pearson(xs, ys)
    for (off <- Seq(1e6, 1e8))
      assert(math.abs(base - Reference.pearson(xs.map(_ + off), ys.map(_ + off))) < 1e-6, s"+$off")
  }

  test("pearson with a constant input is defined as zero") {
    val xs = Array.fill(10)(2.0)
    val ys = Reference.Signals.gaussian(10, 6)
    assert(Reference.pearson(xs, ys) == 0.0)
  }

  test("pearson rejects mismatched lengths") {
    intercept[IllegalArgumentException] {
      Reference.pearson(Array(1.0), Array(1.0, 2.0))
    }
  }
}
