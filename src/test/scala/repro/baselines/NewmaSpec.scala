package repro.baselines

import repro.SparkSpec
import repro.core.{Reference, StreamSegmenter}

class NewmaSpec extends SparkSpec {

  test("stays mostly silent on stationary noise") {
    val cps = StreamSegmenter.segmentSeries(new Newma(), Reference.Signals.gaussian(6000, 81))
    assert(cps.size <= 3, s"cps=$cps")
  }

  test("detects a strong mean shift") {
    val xs = Reference.Signals.meanShift(6000, 3000, 8.0, 1.0, 82)
    val cps = StreamSegmenter.segmentSeries(new Newma(), xs)
    assert(cps.nonEmpty)
    assert(cps.exists(cp => cp >= 2900 && cp <= 3400), s"cps=$cps")
  }

  test("detects a shape change (frequency switch)") {
    val xs = Reference.Signals.twoRegimes(6000, 3000, 20, 50, 0.05, 83)
    val cps = StreamSegmenter.segmentSeries(new Newma(), xs)
    assert(cps.exists(cp => cp >= 2900 && cp <= 3600), s"cps=$cps")
  }

  test("deterministic for a fixed seed") {
    val xs = Reference.Signals.meanShift(5000, 2500, 6.0, 1.0, 84)
    val a = StreamSegmenter.segmentSeries(new Newma(seed = 5), xs)
    val b = StreamSegmenter.segmentSeries(new Newma(seed = 5), xs)
    assert(a == b)
  }

  test("respects the minimum gap") {
    Gaps.assertSpaced(StreamSegmenter.segmentSeries(new Newma(), Gaps.pulses(85)), MinCpGap)
  }
}
