package repro.baselines

import repro.core.StreamSegmenter

/** HDDM — drift detection based on Hoeffding's inequality, A-test variant
  * (Frías-Blanco et al., TKDE 2015).
  *
  * Tracks the cumulative mean of the (self-supervised, [[Binarizer]]) error
  * stream and remembers the prefix cut that minimizes `mean + eps`, where
  * `eps = sqrt(ln(1/alpha) / (2 n))` is the one-sided Hoeffding radius. A
  * drift is flagged when the post-cut sample mean exceeds the pre-cut mean by
  * more than the two-sample Hoeffding bound at confidence `alpha`, at least
  * `MinCpGap` after the previous drift. `O(1)` per observation.
  */
final class Hddm extends StreamSegmenter {
  /** Drift confidence (smaller = fewer reported drifts). */
  private val alpha = 0.001

  private val binarizer = new Binarizer()
  private var n = 0L
  private var sum = 0.0
  private var cutN = 0L
  private var cutSum = 0.0
  private var cutBound = Double.PositiveInfinity
  private var tau = 0L
  private var lastCp = FarPast

  private def reset(): Unit = {
    n = 0; sum = 0.0; cutN = 0; cutSum = 0.0; cutBound = Double.PositiveInfinity
  }

  override def update(x: Double): Option[Long] = {
    val err = binarizer.update(x)
    tau += 1
    n += 1
    sum += err
    val mean = sum / n
    val eps = math.sqrt(math.log(1.0 / alpha) / (2.0 * n))
    if (mean + eps < cutBound) { cutBound = mean + eps; cutN = n; cutSum = sum }
    val recentN = n - cutN
    if (cutN >= 5 && recentN >= 5 && tau - lastCp >= MinCpGap) {
      val preMean = cutSum / cutN
      val postMean = (sum - cutSum) / recentN
      val bound = math.sqrt(
        (1.0 / (2.0 * cutN) + 1.0 / (2.0 * recentN)) * math.log(2.0 / alpha))
      if (postMean - preMean > bound) {
        reset()
        binarizer.reset() // re-warm the self-predictor on the new segment
        lastCp = tau
        return Some(tau - recentN) // new behaviour started where the cut sits
      }
    }
    None
  }
}
