package repro.baselines

import repro.SparkSpec
import repro.core.{Reference, StreamSegmenter}

class FlossSpec extends SparkSpec {

  test("detects a clear shape change near the true boundary") {
    val xs = Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.05, 121)
    val cps = StreamSegmenter.segmentSeries(new Floss(d = 500, widthHint = 20), xs)
    assert(cps.nonEmpty, "no change point detected")
    assert(cps.exists(cp => math.abs(cp - 2000) <= 400), s"cps=$cps")
  }

  test("stays mostly silent on a homogeneous noisy sine") {
    val xs = Reference.Signals.noisySine(4000, 25, 0.2, 122)
    val cps = StreamSegmenter.segmentSeries(new Floss(d = 500, widthHint = 25), xs)
    assert(cps.size <= 2, s"cps=$cps")
  }

  test("misses pure mean shifts (correlation is shift-invariant)") {
    val xs = Reference.Signals.meanShift(4000, 2000, 6.0, 1.0, 123)
    val cps = StreamSegmenter.segmentSeries(new Floss(d = 500, widthHint = 20), xs)
    // The arc curve sees identical shapes on both sides; few or no CPs expected.
    assert(cps.size <= 3, s"cps=$cps")
  }

  test("exclusion zone prevents bursts of nearby reports") {
    // A sine of period 20 with a 90-point square-wave burst of period 50 at
    // 1000, 2000 and 3000: each burst is two changes closer than 5·w.
    val rng = new repro.core.Rng(125)
    val xs = Array.tabulate(4000) { i =>
      val base = if (i % 1000 < 90 && i >= 1000) 2.0 * math.signum(math.sin(2 * math.Pi * i / 50))
                 else math.sin(2 * math.Pi * i / 20)
      base + 0.05 * rng.nextGaussian()
    }
    val w = 20
    Gaps.assertSpaced(StreamSegmenter.segmentSeries(new Floss(500, w), xs), 5 * w + 1)
  }

  test("width hint is clamped to d/10") {
    val xs = Reference.Signals.twoRegimes(3000, 1500, 20, 50, 0.1, 126)
    // hint of 400 on d=500 must clamp to 50 and still run.
    val cps = StreamSegmenter.segmentSeries(new Floss(500, 400), xs)
    assert(cps.forall(cp => cp > 0 && cp < 3000))
  }
}
