package repro.baselines

import repro.SparkSpec
import repro.core.{Reference, StreamSegmenter}

class AdwinSpec extends SparkSpec {

  test("stays silent on stationary noise") {
    val cps = StreamSegmenter.segmentSeries(new Adwin(), Reference.Signals.gaussian(5000, 71))
    assert(cps.size <= 2, s"cps=$cps")
  }

  test("detects a strong mean shift near the boundary") {
    val xs = Reference.Signals.meanShift(5000, 2500, 6.0, 1.0, 72)
    val cps = StreamSegmenter.segmentSeries(new Adwin(), xs)
    assert(cps.nonEmpty)
    assert(cps.exists(cp => cp >= 2350 && cp <= 2900), s"cps=$cps")
  }

  test("detects a variance increase") {
    val rng = new repro.core.Rng(73)
    val xs = Array.tabulate(5000)(i => (if (i < 2500) 0.3 else 4.0) * rng.nextGaussian())
    // ADWIN watches the mean; feed absolute values so variance becomes level.
    val cps = StreamSegmenter.segmentSeries(new Adwin(), xs.map(math.abs))
    assert(cps.exists(cp => cp >= 2350 && cp <= 3000), s"cps=$cps")
  }

  test("respects the minimum gap") {
    Gaps.assertSpaced(StreamSegmenter.segmentSeries(new Adwin(), Gaps.pulses(75)), MinCpGap)
  }

  test("reported positions are within the stream") {
    val xs = Reference.Signals.meanShift(4000, 2000, 8.0, 1.0, 76)
    val cps = StreamSegmenter.segmentSeries(new Adwin(), xs)
    assert(cps.forall(cp => cp > 0 && cp < 4000))
  }
}
