package repro.baselines

import repro.core.StreamSegmenter
import scala.collection.mutable.ArrayBuffer

/** ADWIN — ADaptive WINdowing (Bifet & Gavaldà, SDM 2007).
  *
  * Maintains a variable-length window of the most recent raw observations in
  * exponential-histogram buckets (at most `maxBuckets` buckets per size row,
  * `O(log c)` memory and amortized update). Whenever the means of some
  * old/new sub-window split differ by more than the `delta`-confidence bound
  * `eps_cut`, the old portion is dropped — the drop boundary is the reported
  * change point, at least `MinCpGap` after the previous one.
  */
final class Adwin extends StreamSegmenter {
  override def name: String = "ADWIN"

  /** Confidence parameter of `eps_cut` (paper-tuned value 0.01). */
  private val delta = 0.01
  /** Buckets kept per size row before merging (the classic M = 5). */
  private val maxBuckets = 5

  /** One exponential-histogram bucket: `size` observations with given sum and
    * internal variance (sum of squared deviations from the bucket mean).
    */
  private final case class Bucket(size: Long, sum: Double, variance: Double)

  // rows(r) holds buckets of size 2^r, oldest first within a row; row order:
  // rows(0) = newest (size-1) buckets.
  private val rows = ArrayBuffer(ArrayBuffer.empty[Bucket])
  private var total = 0.0
  private var width = 0L
  private var tau = 0L
  private var lastCp = FarPast

  override def update(x: Double): Option[Long] = {
    tau += 1
    insert(x)
    compress()
    val dropped = shrinkIfNeeded()
    if (dropped && tau - lastCp >= MinCpGap) {
      lastCp = tau
      Some(tau - width) // the kept (recent) window starts the new segment
    } else None
  }

  private def insert(x: Double): Unit = {
    rows(0) += Bucket(1L, x, 0.0)
    total += x
    width += 1
  }

  /** Merge the two oldest buckets of any over-full row into the next row. */
  private def compress(): Unit = {
    var r = 0
    while (r < rows.length) {
      if (rows(r).length > maxBuckets) {
        if (r + 1 == rows.length) rows += ArrayBuffer.empty[Bucket]
        val b1 = rows(r).remove(0)
        val b2 = rows(r).remove(0)
        val n1 = b1.size.toDouble; val n2 = b2.size.toDouble
        val m1 = b1.sum / n1; val m2 = b2.sum / n2
        val merged = Bucket(
          b1.size + b2.size,
          b1.sum + b2.sum,
          b1.variance + b2.variance + (n1 * n2 / (n1 + n2)) * (m1 - m2) * (m1 - m2))
        rows(r + 1) += merged
      }
      r += 1
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
      var r = rows.length - 1
      while (r >= 0) {
        rows(r).foreach { b =>
          val bm = b.sum / b.size
          varW += b.variance + b.size * (bm - mean) * (bm - mean)
        }
        r -= 1
      }
      varW /= width
      // Accumulate the "old" side from the oldest bucket inwards.
      var n0 = 0L; var s0 = 0.0
      var cut: Option[Int] = None // how many oldest buckets to drop (global order)
      val flat = flatOldestFirst()
      var i = 0
      while (cut.isEmpty && i < flat.length - 1) {
        val b = flat(i)
        n0 += b.size; s0 += b.sum
        val n1 = width - n0
        if (n0 >= 5 && n1 >= 5) {
          val m = 1.0 / (1.0 / n0 + 1.0 / n1)
          val dp = math.log(4.0 * math.log(math.max(2.0, width.toDouble)) / delta)
          val eps = math.sqrt(2.0 / m * varW * dp) + 2.0 / (3.0 * m) * dp
          val diff = math.abs(s0 / n0 - (total - s0) / n1)
          if (diff > eps) cut = Some(i + 1)
        }
        i += 1
      }
      cut.foreach { nDrop =>
        dropOldest(nDrop)
        droppedAny = true
        again = width > 10
      }
    }
    droppedAny
  }

  private def flatOldestFirst(): ArrayBuffer[Bucket] = {
    val out = ArrayBuffer.empty[Bucket]
    var r = rows.length - 1
    while (r >= 0) { out ++= rows(r); r -= 1 }
    out
  }

  private def dropOldest(n: Int): Unit = {
    var remaining = n
    var r = rows.length - 1
    while (remaining > 0 && r >= 0) {
      while (remaining > 0 && rows(r).nonEmpty) {
        val b = rows(r).remove(0)
        total -= b.sum
        width -= b.size
        remaining -= 1
      }
      r -= 1
    }
  }
}
