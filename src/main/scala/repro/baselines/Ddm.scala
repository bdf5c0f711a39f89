package repro.baselines

import repro.core.StreamSegmenter

/** DDM — Drift Detection Method (Gama et al., SBIA 2004).
  *
  * Monitors the running error rate `p_t` of a (here: self-supervised, see
  * [[Binarizer]]) predictor together with its binomial standard deviation
  * `s_t = sqrt(p_t (1-p_t) / t)`. The minimum of `p + s` is tracked; when the
  * current `p_t + s_t` exceeds `p_min + driftLevel * s_min` a drift — i.e. a
  * change point ending the last segment — is reported, at least `MinCpGap`
  * after the previous one, and the statistics reset. `O(1)` per observation.
  */
final class Ddm extends StreamSegmenter {
  /** Number of `s_min` above `p_min` that triggers a drift (classic value 3). */
  private val driftLevel = 3.0
  /** Observations after a reset before testing again. */
  private val minInstances = 30

  private val binarizer = new Binarizer()
  private var n = 0L          // observations since last reset
  private var errors = 0L
  private var pMin = Double.PositiveInfinity
  private var sMin = Double.PositiveInfinity
  private var tau = 0L        // absolute stream position
  private var lastCp = FarPast

  override def update(x: Double): Option[Long] = {
    val err = binarizer.update(x)
    tau += 1
    n += 1
    errors += err
    if (n < minInstances || errors < 3) return None
    // Laplace smoothing: a zero-error prefix must not pin p_min = s_min = 0,
    // which would make the very first error a "drift".
    val p = (errors + 1).toDouble / (n + 2)
    val s = math.sqrt(p * (1 - p) / n)
    if (p + s < pMin + sMin) { pMin = p; sMin = s }
    if (p + s > pMin + driftLevel * sMin && tau - lastCp >= MinCpGap) {
      n = 0; errors = 0
      pMin = Double.PositiveInfinity; sMin = Double.PositiveInfinity
      binarizer.reset() // re-warm the self-predictor on the new segment
      lastCp = tau
      Some(tau - 1)
    } else None
  }
}
