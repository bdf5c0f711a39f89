package repro.baselines

import repro.SparkSpec
import repro.core.{Reference, StreamSegmenter}

class WindowSegmenterSpec extends SparkSpec {

  test("stays mostly silent on stationary noise") {
    val cps = StreamSegmenter.segmentSeries(
      new WindowSegmenter(widthHint = 20), Reference.Signals.gaussian(6000, 111))
    assert(cps.size <= 3, s"cps=$cps")
  }

  test("detects an autoregressive regime change near the boundary") {
    val rng = new repro.core.Rng(112)
    val xs = new Array[Double](6000)
    var prev = 0.0
    for (i <- xs.indices) {
      val phi = if (i < 3000) 0.1 else 0.95
      prev = phi * prev + rng.nextGaussian()
      xs(i) = prev
    }
    val cps = StreamSegmenter.segmentSeries(new WindowSegmenter(widthHint = 20), xs)
    assert(cps.exists(cp => math.abs(cp - 3000) <= 400), s"cps=$cps")
  }

  test("detects a strong mean shift") {
    val xs = Reference.Signals.meanShift(6000, 3000, 8.0, 1.0, 113)
    val cps = StreamSegmenter.segmentSeries(new WindowSegmenter(widthHint = 20), xs)
    assert(cps.exists(cp => math.abs(cp - 3000) <= 300), s"cps=$cps")
  }

  test("buffer size scales with the width hint") {
    // A tiny hint still yields a workable minimum buffer; no crash on short input.
    val xs = Reference.Signals.gaussian(200, 115)
    val cps = StreamSegmenter.segmentSeries(new WindowSegmenter(widthHint = 1), xs)
    assert(cps.forall(cp => cp > 0 && cp < 200))
  }

  test("consecutive reports are separated by at least half the buffer") {
    val rng = new repro.core.Rng(116)
    val xs = Array.tabulate(8000)(i => (i / 600).toDouble * 3 + rng.nextGaussian())
    val hint = 30
    val cps = StreamSegmenter.segmentSeries(new WindowSegmenter(widthHint = hint), xs)
    val half = math.max(40, 10 * hint) / 2
    cps.sliding(2).foreach {
      case Vector(a, b) => assert(b - a >= half, s"gap ${b - a}")
      case _            =>
    }
  }
}
