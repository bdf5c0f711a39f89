package repro.baselines

/** Shared self-supervised error stream for the drift detectors (DDM, HDDM).
  *
  * DDM and HDDM monitor the error rate of a classifier; for raw sensor
  * streams (no labels) the standard reduction is to monitor the error of a
  * naive self-predictor. We predict that each observation stays inside `z`
  * standard deviations of the running mean; an observation outside that band
  * is an error (1), otherwise a success (0).
  *
  * The statistics adapt quickly during a warm-up phase (locking onto the
  * current segment) and then almost freeze — a distribution shift therefore
  * produces a *persistent* elevated error rate, which is exactly the signal
  * DDM/HDDM are built to detect. When the detector reports a drift it calls
  * [[reset]], which re-warms the predictor on the new segment — the same
  * "retrain the model after drift" loop these methods assume.
  */
final class Binarizer extends Serializable {
  /** EWMA decay while warming up, and after warm-up (near-frozen). */
  private val warmDecay = 0.05
  private val slowDecay = 0.002
  /** Band half-width in running standard deviations. */
  private val z = 2.5
  /** Observations before errors are emitted after a (re)start. */
  private val warmup = 50
  private var mean = 0.0
  private var varAcc = 1.0
  private var n = 0L

  /** Re-enter warm-up: called by the detector when a drift was confirmed. */
  def reset(): Unit = { n = 0 }

  /** Ingest `x`, return 1 for a prediction error and 0 otherwise. */
  def update(x: Double): Int = {
    n += 1
    if (n == 1) { mean = x; varAcc = 1.0; return 0 }
    val err =
      if (n <= warmup) 0
      else {
        val sd = math.sqrt(math.max(varAcc, 1e-12))
        if (math.abs(x - mean) > z * sd) 1 else 0
      }
    val decay = if (n <= warmup) warmDecay else slowDecay
    val d = x - mean
    mean += decay * d
    // Variance freezes after warm-up: otherwise post-shift outliers inflate
    // the band until the error signal the drift detectors rely on vanishes.
    if (n <= warmup) varAcc = (1 - decay) * (varAcc + decay * d * d)
    err
  }
}
