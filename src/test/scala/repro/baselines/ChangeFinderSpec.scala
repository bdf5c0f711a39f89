package repro.baselines

import repro.SparkSpec
import repro.core.{Reference, StreamSegmenter}

class ChangeFinderSpec extends SparkSpec {

  test("stays mostly silent on stationary noise") {
    val cps = StreamSegmenter.segmentSeries(new ChangeFinder(), Reference.Signals.gaussian(6000, 91))
    assert(cps.size <= 3, s"cps=$cps")
  }

  test("detects a strong mean shift") {
    val xs = Reference.Signals.meanShift(6000, 3000, 8.0, 1.0, 92)
    val cps = StreamSegmenter.segmentSeries(new ChangeFinder(), xs)
    assert(cps.nonEmpty)
    assert(cps.exists(cp => cp >= 2900 && cp <= 3400), s"cps=$cps")
  }

  test("detects an autocorrelation change") {
    val rng = new repro.core.Rng(93)
    val xs = new Array[Double](6000)
    var prev = 0.0
    for (i <- xs.indices) {
      val phi = if (i < 3000) 0.0 else 0.95
      prev = phi * prev + rng.nextGaussian()
      xs(i) = prev
    }
    val cps = StreamSegmenter.segmentSeries(new ChangeFinder(), xs)
    assert(cps.exists(cp => cp >= 2900 && cp <= 3800), s"cps=$cps")
  }

  test("SDAR log-loss spikes at an outlier") {
    val sdar = new Sdar(order = 2, discount = 0.02)
    val rng = new repro.core.Rng(95)
    var baseline = 0.0
    for (_ <- 1 to 500) baseline = sdar.update(rng.nextGaussian())
    val spike = sdar.update(50.0)
    assert(spike > baseline + 10, s"baseline=$baseline spike=$spike")
  }

  test("SDAR tracks a predictable AR(1) signal to low loss") {
    val rng = new repro.core.Rng(96)
    val sdar = new Sdar(order = 1, discount = 0.01)
    var prev = 0.0
    var lastLoss = Double.MaxValue
    for (_ <- 1 to 3000) {
      prev = 0.9 * prev + 0.1 * rng.nextGaussian()
      lastLoss = sdar.update(prev)
    }
    assert(lastLoss < 3.0, s"loss=$lastLoss")
  }

  test("respects the minimum gap") {
    Gaps.assertSpaced(StreamSegmenter.segmentSeries(new ChangeFinder(), Gaps.pulses(97)), MinCpGap)
  }
}
