package repro.core

import repro.SparkSpec
import repro.eval.Sweep

/** Contract tests for the offline driver shared by every method. */
class SegmenterSpec extends SparkSpec {

  /** Stub that emits a fixed CP at configured steps. */
  private final class Stub(emitAt: Map[Int, Long]) extends StreamSegmenter {
    private var i = -1
    override def update(x: Double): Option[Long] = { i += 1; emitAt.get(i) }
  }

  test("driver collects CPs in order") {
    val seg = new Stub(Map(10 -> 5L, 20 -> 15L))
    val cps = StreamSegmenter.segmentSeries(seg, new Array[Double](30))
    assert(cps == Vector(5L, 15L))
  }

  test("driver keeps detections out of order and repeated") {
    val seg = new Stub(Map(5 -> 9L, 10 -> 3L, 15 -> 9L))
    val cps = StreamSegmenter.segmentSeries(seg, new Array[Double](20))
    assert(cps == Vector(9L, 3L, 9L))
  }

  test("driver keeps positions at the start and beyond the end") {
    val seg = new Stub(Map(5 -> 0L, 10 -> 19L, 15 -> 25L, 18 -> 7L))
    val cps = StreamSegmenter.segmentSeries(seg, new Array[Double](20))
    assert(cps == Vector(0L, 19L, 25L, 7L)) // 0 (start) and 25 (beyond end) kept
  }

  test("driver feeds every point exactly once") {
    var count = 0
    val seg = new StreamSegmenter {
      override def update(x: Double): Option[Long] = { count += 1; None }
    }
    StreamSegmenter.segmentSeries(seg, new Array[Double](123))
    assert(count == 123)
  }

  test("empty input yields no CPs") {
    assert(StreamSegmenter.segmentSeries(new Stub(Map.empty), Array.empty[Double]).isEmpty)
  }

  test("every method reports strictly increasing positions inside (0, n)") {
    val signals = Seq(
      Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.05, 41),
      Reference.Signals.meanShift(4000, 2000, 3.0, 1.0, 42),
      Reference.Signals.twoRegimes(3000, 1500, 18, 48, 0.1, 45) ++
        Reference.Signals.meanShift(3000, 1500, 2.0, 0.5, 46))
    Sweep.AllMethods.foreach { method =>
      val found = signals.map { xs =>
        val cps = StreamSegmenter.segmentSeries(Sweep.createMethod(method, d = 500, widthHint = 20), xs)
        assert(cps.zip(cps.drop(1)).forall { case (a, b) => a < b }, s"$method: not strictly increasing: $cps")
        assert(cps.forall(cp => cp > 0 && cp < xs.length), s"$method: outside (0, ${xs.length}): $cps")
        cps.size
      }
      assert(found.sum > 0, s"$method reported no CP on any signal")
    }
  }
}
