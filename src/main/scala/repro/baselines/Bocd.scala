package repro.baselines

import repro.core.StreamSegmenter

/** BOCD — Bayesian Online Changepoint Detection (Adams & MacKay, 2007).
  *
  * Maintains the posterior over the current run length under a constant
  * hazard and a Normal–Inverse-Gamma conjugate model (Student-t predictive).
  * Following the paper's tuning, a change point is reported when the MAP run
  * length drops by more than `dropThreshold` in one step, at least
  * `MinCpGap` after the previous one; the CP location is the start of the
  * new run.
  *
  * The run-length support is truncated at `maxRunLength` (tail mass folds
  * into the last bin) — the paper's untruncated O(n) variant did not finish
  * on the archive tier and is excluded there, which we mirror (DESIGN.md §2).
  * Each step writes the grown posterior into a second preallocated buffer
  * and swaps the two, so `update` allocates nothing.
  */
final class Bocd extends StreamSegmenter {
  /** Expected run length of the geometric prior (constant hazard 1/250). */
  private val hazardLambda = 250.0
  /** MAP run-length drop in one step that signals a change. */
  private val dropThreshold = 150
  /** Truncation of the run-length posterior. */
  private val maxRunLength = 512

  // Normal-Inverse-Gamma hyper-parameters per run length r (index = r).
  private val mu = new Array[Double](maxRunLength + 1)
  private val kap = new Array[Double](maxRunLength + 1)
  private val alp = new Array[Double](maxRunLength + 1)
  private val bet = new Array[Double](maxRunLength + 1)
  // Run-length posterior, and the buffer the next step writes it into.
  private var probs = new Array[Double](maxRunLength + 1)
  private var spare = new Array[Double](maxRunLength + 1)
  private var support = 0 // current max run length represented
  private var tau = 0L
  private var lastCp = FarPast
  private var prevMap = 0
  // Prior scale learned from the first observations.
  private var warmSum = 0.0
  private var warmSumSq = 0.0
  private val warmup = 50
  private var mu0 = 0.0
  private var beta0 = 1.0
  private val kappa0 = 1.0
  private val alpha0 = 1.0

  private def studentTLogPdf(x: Double, r: Int): Double = {
    // Predictive: Student-t with df=2*alpha, loc=mu, scale^2 = beta*(kappa+1)/(alpha*kappa)
    val df = 2 * alp(r)
    val scale2 = bet(r) * (kap(r) + 1) / (alp(r) * kap(r))
    val z2 = (x - mu(r)) * (x - mu(r)) / scale2
    lgamma((df + 1) / 2) - lgamma(df / 2) -
      0.5 * math.log(math.Pi * df * scale2) -
      (df + 1) / 2 * math.log1p(z2 / df)
  }

  /** Lanczos coefficients (g = 7) of `lgamma`. */
  private val lanczos = Array(0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
  private def lgamma(x: Double): Double = {
    // Lanczos approximation, sufficient accuracy for likelihood ratios.
    val g = 7.0
    if (x < 0.5) math.log(math.Pi / math.sin(math.Pi * x)) - lgamma(1 - x)
    else {
      val xx = x - 1
      var a = lanczos(0)
      val t = xx + g + 0.5
      var i = 1
      while (i < 9) { a += lanczos(i) / (xx + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (xx + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  override def update(x: Double): Option[Long] = {
    tau += 1
    if (tau <= warmup) {
      warmSum += x; warmSumSq += x * x
      if (tau == warmup) {
        mu0 = warmSum / warmup
        val v = math.max(1e-6, warmSumSq / warmup - mu0 * mu0)
        beta0 = v
        mu(0) = mu0; kap(0) = kappa0; alp(0) = alpha0; bet(0) = beta0
        probs(0) = 1.0; support = 0
      }
      return None
    }

    // Grow run length r into r+1 in the spare buffer (the last bin also
    // keeps its own mass: truncation); the change mass restarts at 0.
    val h = 1.0 / hazardLambda
    val next = spare
    java.util.Arrays.fill(next, 0.0)
    var cpMass = 0.0
    val newSupport = math.min(support + 1, maxRunLength)
    var r = support
    while (r >= 0) {
      val pred = math.exp(math.max(-700.0, studentTLogPdf(x, r)))
      val mass = probs(r) * pred
      next(math.min(r + 1, maxRunLength)) += mass * (1 - h)
      cpMass += mass * h
      r -= 1
    }
    next(0) = cpMass
    var total = 0.0
    r = 0
    while (r <= newSupport) { total += next(r); r += 1 }
    if (total <= 0 || total.isNaN) { // numerical collapse: restart
      java.util.Arrays.fill(next, 0.0)
      next(0) = 1.0
    } else {
      r = 0
      while (r <= newSupport) { next(r) /= total; r += 1 }
    }
    spare = probs
    probs = next

    // Update sufficient statistics: posterior for run r+1 comes from run r.
    r = math.min(support, maxRunLength - 1)
    while (r >= 0) {
      val k = kap(r)
      mu(r + 1) = (k * mu(r) + x) / (k + 1)
      kap(r + 1) = k + 1
      alp(r + 1) = alp(r) + 0.5
      bet(r + 1) = bet(r) + k * (x - mu(r)) * (x - mu(r)) / (2 * (k + 1))
      r -= 1
    }
    mu(0) = mu0; kap(0) = kappa0; alp(0) = alpha0; bet(0) = beta0
    support = newSupport

    var map = 0
    var best = probs(0)
    r = 1
    while (r <= support) { if (probs(r) > best) { best = probs(r); map = r }; r += 1 }
    val drop = prevMap - map
    prevMap = map
    if (drop > dropThreshold && tau - lastCp >= MinCpGap) {
      lastCp = tau
      Some(tau - map - 1)
    } else None
  }
}
