package repro.baselines

import repro.core.{Rng, StreamSegmenter}

/** NEWMA — No-prior-knowledge Exponentially Weighted Moving Average
  * (Keriven, Garreau, Poli, IEEE TSP 2020).
  *
  * Embeds the recent signal (a short delay vector) through random Fourier
  * features and tracks two EWMAs of the features with different forgetting
  * factors. Their distance concentrates when the generating distribution is
  * stable and spikes after a change; a margin over the trailing maximum of
  * the statistic (the paper's tuning chose the 1.0-quantile) decides
  * detection, at least `MinCpGap` after the previous CP. `O(c)` per
  * observation with `c = embedDim * rffDim`.
  *
  * @param seed seed of the random Fourier features
  */
final class Newma(seed: Long = 13L) extends StreamSegmenter {
  /** Delay-embedding dimension. */
  private val embedDim = 16
  /** Number of random Fourier features. */
  private val rffDim = 48
  /** Fast and slow forgetting factors. */
  private val lambdaFast = 0.10
  private val lambdaSlow = 0.025
  /** Margin on the trailing max: under stationarity fresh maxima exceed it
    * only marginally, while a genuine change multiplies it.
    */
  private val factor = 1.25
  /** Trailing statistics kept for the threshold. */
  private val buffer = 500

  private val rng = new Rng(seed)
  private val wMat = Array.fill(rffDim * embedDim)(rng.nextGaussian())
  private val bVec = Array.fill(rffDim)(rng.nextDouble() * 2 * math.Pi)
  private val delay = new Array[Double](embedDim)
  private var delayFill = 0
  private val zFast = new Array[Double](rffDim)
  private val zSlow = new Array[Double](rffDim)
  private val psi = new Array[Double](rffDim)
  private val stats = new Array[Double](buffer)
  private var statsFill = 0
  private var statsIdx = 0
  // Statistics enter the threshold buffer only after `lag` steps: the EWMA
  // statistic ramps gradually after a change, and an un-lagged buffer would
  // chase it so the threshold is never exceeded.
  private val lag = 100
  private val pending = new Array[Double](lag)
  private var pendingFill = 0
  private var pendingIdx = 0
  private var tau = 0L
  private var lastCp = FarPast
  private var scale = 1.0
  private var scaleSum = 0.0
  private var scaleSumSq = 0.0
  private val warmup = 200

  override def update(x: Double): Option[Long] = {
    tau += 1
    // Bandwidth: fix the RFF scale from the warm-up standard deviation.
    if (tau <= warmup) {
      scaleSum += x; scaleSumSq += x * x
      if (tau == warmup) {
        val m = scaleSum / warmup
        val v = math.max(1e-12, scaleSumSq / warmup - m * m)
        scale = math.sqrt(v * embedDim)
      }
    }
    // Delay embedding (newest last).
    if (delayFill < embedDim) { delay(delayFill) = x; delayFill += 1 }
    else { System.arraycopy(delay, 1, delay, 0, embedDim - 1); delay(embedDim - 1) = x }
    if (delayFill < embedDim || tau <= warmup) return None

    var i = 0
    while (i < rffDim) {
      var acc = bVec(i)
      var j = 0
      while (j < embedDim) { acc += wMat(i * embedDim + j) * delay(j) / scale; j += 1 }
      psi(i) = math.sqrt(2.0 / rffDim) * math.cos(acc)
      zFast(i) += lambdaFast * (psi(i) - zFast(i))
      zSlow(i) += lambdaSlow * (psi(i) - zSlow(i))
      i += 1
    }
    var dist = 0.0
    i = 0
    while (i < rffDim) { val dv = zFast(i) - zSlow(i); dist += dv * dv; i += 1 }
    dist = math.sqrt(dist)

    var detected = false
    if (statsFill >= buffer / 2 && tau - lastCp >= MinCpGap) {
      val threshold = factor * trailingMax()
      if (dist > threshold) detected = true
    }
    // Route through the lag queue before the threshold buffer.
    if (pendingFill < lag) { pending(pendingIdx) = dist; pendingFill += 1 }
    else {
      val old = pending(pendingIdx)
      pending(pendingIdx) = dist
      stats(statsIdx) = old
      statsIdx = (statsIdx + 1) % buffer
      if (statsFill < buffer) statsFill += 1
    }
    pendingIdx = (pendingIdx + 1) % lag

    if (detected) { lastCp = tau; Some(tau - 1) } else None
  }

  private def trailingMax(): Double = {
    var max = stats(0)
    var i = 1
    while (i < statsFill) { max = math.max(max, stats(i)); i += 1 }
    max
  }
}
