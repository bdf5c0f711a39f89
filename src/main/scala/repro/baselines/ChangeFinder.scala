package repro.baselines

import repro.core.StreamSegmenter

/** Sequentially Discounting AutoRegressive model (SDAR) of small order:
  * exponentially discounted Yule–Walker estimates solved with
  * Levinson–Durbin, plus the Gaussian log-loss of each observation.
  */
private[baselines] final class Sdar(order: Int, discount: Double) extends Serializable {
  private var mean = 0.0
  private val cov = new Array[Double](order + 1)
  private val hist = new Array[Double](order) // centred past values, newest first
  private var histFill = 0
  private var sigma2 = 1.0
  private var n = 0L

  /** Ingest `x`; returns its log-loss under the model fitted so far. */
  def update(x: Double): Double = {
    n += 1
    if (n == 1) { mean = x }
    val r = discount
    mean += r * (x - mean)
    val c = x - mean
    var j = 0
    while (j <= order) {
      val prev = if (j == 0) c else if (j - 1 < histFill) hist(j - 1) else 0.0
      cov(j) = (1 - r) * cov(j) + r * c * prev
      j += 1
    }
    val a = levinson()
    var pred = 0.0
    j = 0
    while (j < order) { pred += a(j) * (if (j < histFill) hist(j) else 0.0); j += 1 }
    val resid = c - pred
    sigma2 = (1 - r) * sigma2 + r * resid * resid
    // Shift history (newest first).
    var m = math.min(histFill, order - 1)
    while (m > 0) { hist(m) = hist(m - 1); m -= 1 }
    hist(0) = c
    if (histFill < order) histFill += 1
    val s2 = math.max(sigma2, 1e-12)
    0.5 * math.log(2 * math.Pi * s2) + resid * resid / (2 * s2)
  }

  /** Levinson–Durbin solve of the Yule–Walker equations for `cov`. */
  private def levinson(): Array[Double] = {
    val a = new Array[Double](order)
    var err = math.max(cov(0), 1e-12)
    var i = 0
    while (i < order) {
      var acc = cov(i + 1)
      var j = 0
      while (j < i) { acc -= a(j) * cov(i - j); j += 1 }
      val kappa = acc / err
      val aNew = java.util.Arrays.copyOf(a, order)
      aNew(i) = kappa
      j = 0
      while (j < i) { aNew(j) = a(j) - kappa * a(i - 1 - j); j += 1 }
      System.arraycopy(aNew, 0, a, 0, order)
      err *= (1 - kappa * kappa)
      if (err < 1e-12) err = 1e-12
      i += 1
    }
    a
  }
}

/** ChangeFinder (Yamanishi & Takeuchi, KDD 2002).
  *
  * Two-stage SDAR: the first model scores each observation by its log-loss,
  * the scores are smoothed over `smooth` points, a second SDAR scores the
  * smoothed series, and a second `smooth` average yields the change score.
  * A change point is reported when the score exceeds an adaptive threshold
  * (trailing mean plus `kappa` standard deviations — scale-free across our
  * heterogeneous corpus, standing in for the paper's tuned fixed threshold),
  * at least `MinCpGap` after the previous one.
  */
final class ChangeFinder extends StreamSegmenter {
  /** AR order and discounting factor of both SDAR stages. */
  private val order = 2
  private val discount = 0.01
  /** Window of both smoothing stages. */
  private val smooth = 7
  /** Threshold in trailing standard deviations of the score. */
  private val kappa = 6.0

  private val stage1 = new Sdar(order, discount)
  private val stage2 = new Sdar(order, discount)
  private val buf1 = new Array[Double](smooth)
  private val buf2 = new Array[Double](smooth)
  private var n1 = 0L
  private var n2 = 0L
  private var tau = 0L
  private var lastCp = FarPast
  // Trailing moments of the final score for the adaptive threshold.
  private var scoreMean = 0.0
  private var scoreVar = 1.0
  private var scoreN = 0L
  private val scoreDecay = 0.005
  private val warmup = 200

  override def update(x: Double): Option[Long] = {
    tau += 1
    val s1 = stage1.update(x)
    buf1((n1 % smooth).toInt) = s1
    n1 += 1
    if (n1 < smooth) return None
    val sm1 = buf1.sum / smooth
    val s2 = stage2.update(sm1)
    buf2((n2 % smooth).toInt) = s2
    n2 += 1
    if (n2 < smooth) return None
    val score = buf2.sum / smooth

    scoreN += 1
    var detected = false
    if (scoreN > warmup && tau - lastCp >= MinCpGap) {
      val sd = math.sqrt(math.max(scoreVar, 1e-12))
      if (score > scoreMean + kappa * sd) detected = true
    }
    val d = score - scoreMean
    scoreMean += scoreDecay * d
    scoreVar = (1 - scoreDecay) * (scoreVar + scoreDecay * d * d)

    if (detected) { lastCp = tau; Some(tau - 1) } else None
  }
}
