package repro.baselines

import repro.SparkSpec
import repro.core.{Reference, StreamSegmenter}

/** Behavioural tests for the error-rate drift detectors (DDM, HDDM) and the
  * shared binarizer.
  */
class DriftDetectorsSpec extends SparkSpec {

  test("binarizer emits zeros on a stationary stream") {
    val b = new Binarizer()
    val errs = Reference.Signals.gaussian(2000, 61).map(b.update)
    assert(errs.sum < 100, s"error rate ${errs.sum / 2000.0}")
  }

  test("binarizer flags a mean shift as a persistent error burst") {
    val b = new Binarizer()
    val xs = Reference.Signals.meanShift(3000, 1500, 8.0, 1.0, 62)
    val errs = xs.map(b.update)
    val beforeRate = errs.slice(500, 1500).sum / 1000.0
    val afterRate = errs.slice(1500, 1700).sum / 200.0
    assert(afterRate > 5 * beforeRate + 0.05, s"before=$beforeRate after=$afterRate")
    assert(afterRate > 0.5, s"shift not persistent: $afterRate")
  }

  test("binarizer warm-up suppresses early errors") {
    val b = new Binarizer()
    val xs = Reference.Signals.gaussian(50, 63).map(_ * 100) // wild values
    assert(xs.map(b.update).sum == 0)
  }

  test("binarizer reset re-warms onto the new segment") {
    val b = new Binarizer()
    val xs = Reference.Signals.meanShift(3000, 1500, 8.0, 1.0, 60)
    xs.take(1600).foreach(b.update)
    b.reset()
    // After re-warming on post-shift data, the error rate drops back down.
    val errs = xs.drop(1600).map(b.update)
    assert(errs.sum / errs.length.toDouble < 0.1, s"rate=${errs.sum / errs.length.toDouble}")
  }

  test("DDM stays silent on stationary noise") {
    val cps = StreamSegmenter.segmentSeries(new Ddm(), Reference.Signals.gaussian(5000, 64))
    assert(cps.size <= 1, s"cps=$cps")
  }

  test("DDM detects a strong mean shift") {
    val xs = Reference.Signals.meanShift(5000, 2500, 10.0, 1.0, 65)
    val cps = StreamSegmenter.segmentSeries(new Ddm(), xs)
    assert(cps.nonEmpty)
    assert(cps.exists(cp => cp >= 2400 && cp <= 3000), s"cps=$cps")
  }

  test("DDM respects the minimum gap between reports") {
    Gaps.assertSpaced(StreamSegmenter.segmentSeries(new Ddm(), Gaps.pulses(66)), MinCpGap)
  }

  test("HDDM stays silent on stationary noise") {
    val cps = StreamSegmenter.segmentSeries(new Hddm(), Reference.Signals.gaussian(5000, 67))
    assert(cps.size <= 1, s"cps=$cps")
  }

  test("HDDM detects a strong mean shift") {
    val xs = Reference.Signals.meanShift(5000, 2500, 10.0, 1.0, 68)
    val cps = StreamSegmenter.segmentSeries(new Hddm(), xs)
    assert(cps.nonEmpty)
    assert(cps.exists(cp => cp >= 2300 && cp <= 3100), s"cps=$cps")
  }
}
