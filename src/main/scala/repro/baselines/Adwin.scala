package repro.baselines

import repro.core.StreamSegmenter
import scala.collection.mutable.ArrayBuffer

/** ADWIN — ADaptive WINdowing (Bifet & Gavaldà, SDM 2007).
  *
  * Maintains a variable-length window of the most recent raw observations in
  * an exponential histogram: one oldest-first list of buckets, in which each
  * bucket size (a power of two) forms one run of at most `maxBuckets`
  * buckets, so sizes never grow from old to new (`O(log c)` memory and
  * amortized update). Whenever the means of some old/new sub-window split
  * differ by more than the `delta`-confidence bound `eps_cut`, the old
  * portion is dropped — the drop boundary is the reported change point, at
  * least `MinCpGap` after the previous one.
  */
final class Adwin extends StreamSegmenter {
  /** Confidence parameter of `eps_cut` (paper-tuned value 0.01). */
  private val delta = 0.01
  /** Buckets kept per size before merging (the classic M = 5). */
  private val maxBuckets = 5

  /** One exponential-histogram bucket: `size` observations with given sum and
    * internal variance (sum of squared deviations from the bucket mean).
    */
  private final case class Bucket(size: Long, sum: Double, variance: Double)

  private val buckets = ArrayBuffer.empty[Bucket] // oldest first
  private var total = 0.0
  private var width = 0L
  private var tau = 0L
  private var lastCp = FarPast

  override def update(x: Double): Option[Long] = {
    tau += 1
    buckets += Bucket(1L, x, 0.0)
    total += x
    width += 1
    compress()
    val dropped = shrinkIfNeeded()
    if (dropped && tau - lastCp >= MinCpGap) {
      lastCp = tau
      Some(tau - width) // the kept (recent) window starts the new segment
    } else None
  }

  /** From the newest run to the oldest: merge the two oldest buckets of an
    * over-full run in place, so that the merged bucket becomes the newest of
    * the next older run. A run that needs no merge leaves the older runs as
    * they were, at most `maxBuckets` long.
    */
  private def compress(): Unit = {
    var end = buckets.length // one past the newest bucket of the current run
    while (end > 0) {
      val size = buckets(end - 1).size
      var start = end - 1
      while (start > 0 && buckets(start - 1).size == size) start -= 1
      if (end - start <= maxBuckets) return
      val b1 = buckets(start); val b2 = buckets(start + 1)
      val n1 = b1.size.toDouble; val n2 = b2.size.toDouble
      val m1 = b1.sum / n1; val m2 = b2.sum / n2
      buckets(start) = Bucket(
        b1.size + b2.size,
        b1.sum + b2.sum,
        b1.variance + b2.variance + (n1 * n2 / (n1 + n2)) * (m1 - m2) * (m1 - m2))
      buckets.remove(start + 1)
      end = start + 1
    }
  }

  /** Scan cut points oldest-to-newest; drop old buckets while a significant
    * mean difference is found. Returns whether anything was dropped.
    */
  private def shrinkIfNeeded(): Boolean = {
    if (width < 10) return false
    var droppedAny = false
    var again = true
    while (again) {
      again = false
      // Window variance for the bound.
      val mean = total / width
      var varW = 0.0
      buckets.foreach { b =>
        val bm = b.sum / b.size
        varW += b.variance + b.size * (bm - mean) * (bm - mean)
      }
      varW /= width
      val dp = math.log(4.0 * math.log(math.max(2.0, width.toDouble)) / delta)
      // Accumulate the "old" side from the oldest bucket inwards.
      var n0 = 0L; var s0 = 0.0
      var cut = 0 // how many oldest buckets to drop
      var i = 0
      while (cut == 0 && i < buckets.length - 1) {
        n0 += buckets(i).size; s0 += buckets(i).sum
        val n1 = width - n0
        if (n0 >= 5 && n1 >= 5) {
          val m = 1.0 / (1.0 / n0 + 1.0 / n1)
          val eps = math.sqrt(2.0 / m * varW * dp) + 2.0 / (3.0 * m) * dp
          if (math.abs(s0 / n0 - (total - s0) / n1) > eps) cut = i + 1
        }
        i += 1
      }
      if (cut > 0) {
        buckets.iterator.take(cut).foreach { b => total -= b.sum; width -= b.size }
        buckets.remove(0, cut)
        droppedAny = true
        again = width > 10
      }
    }
    droppedAny
  }
}
