package repro.baselines

import repro.SparkSpec
import repro.core.{Reference, StreamSegmenter}

class BocdSpec extends SparkSpec {

  test("stays silent on stationary noise") {
    val cps = StreamSegmenter.segmentSeries(new Bocd(), Reference.Signals.gaussian(4000, 101))
    assert(cps.size <= 2, s"cps=$cps")
  }

  test("detects a strong mean shift and locates it via the run length") {
    val xs = Reference.Signals.meanShift(4000, 2000, 6.0, 1.0, 102)
    val cps = StreamSegmenter.segmentSeries(new Bocd(), xs)
    assert(cps.nonEmpty)
    assert(cps.exists(cp => math.abs(cp - 2000) <= 300), s"cps=$cps")
  }

  test("detects a variance change") {
    val rng = new repro.core.Rng(103)
    val xs = Array.tabulate(4000)(i => (if (i < 2000) 0.5 else 4.0) * rng.nextGaussian())
    val cps = StreamSegmenter.segmentSeries(new Bocd(), xs)
    assert(cps.exists(cp => math.abs(cp - 2000) <= 400), s"cps=$cps")
  }

  test("run-length truncation keeps the detector numerically alive") {
    val xs = Reference.Signals.gaussian(3000, 104).map(_ * 1e-3) // tiny scale
    val cps = StreamSegmenter.segmentSeries(new Bocd(), xs) // 3000 points > the 512 cap
    assert(cps.forall(cp => cp > 0 && cp < 3000)) // no crash, sane output
  }

  test("reported positions precede the detection step (retrospective location)") {
    val xs = Reference.Signals.meanShift(4000, 2000, 6.0, 1.0, 106)
    val seg = new Bocd()
    var detectedAt = -1L
    var position = -1L
    xs.zipWithIndex.foreach { case (x, i) =>
      seg.update(x).foreach { cp => if (detectedAt < 0) { detectedAt = i; position = cp } }
    }
    assert(detectedAt >= 0)
    assert(position <= detectedAt)
  }
}
