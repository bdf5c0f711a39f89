package repro.baselines

import repro.core.StreamSegmenter

/** Sliding "Window" discrepancy baseline (Truong, Oudre, Vayatis, 2020).
  *
  * Keeps a buffer of `c = 10 × widthHint` recent observations (as in the
  * paper, the annotated subsequence width scales the window) and scores the
  * centre split with the autoregressive cost gain
  * `(cost(full) - cost(left) - cost(right)) / cost(full)`, where `cost` is
  * the residual sum of squares of a least-squares AR(1) fit. A gain above
  * `threshold` reports the centre as a change point, at least `c / 2` after
  * the previous one. `O(c)` per observation.
  *
  * @param widthHint annotated subsequence width of the series
  */
final class WindowSegmenter(widthHint: Int) extends StreamSegmenter {
  /** Relative cost-gain threshold (paper-tuned 0.2). */
  private val threshold = 0.2
  private val c = math.max(40, 10 * widthHint)
  private val half = c / 2
  private val buf = new Array[Double](c)
  private var fill = 0
  private var tau = 0L
  private var lastCp = FarPast

  /** RSS of the least-squares AR(1) fit `x_t ≈ a·x_{t-1} + b` on `buf[lo, hi)`. */
  private def arCost(lo: Int, hi: Int): Double = {
    val n = hi - lo - 1
    if (n < 3) return 0.0
    var sx = 0.0; var sy = 0.0; var sxx = 0.0; var sxy = 0.0; var syy = 0.0
    var i = lo + 1
    while (i < hi) {
      val xp = buf(i - 1); val y = buf(i)
      sx += xp; sy += y; sxx += xp * xp; sxy += xp * y; syy += y * y
      i += 1
    }
    val den = n * sxx - sx * sx
    if (math.abs(den) < 1e-12) {
      // Constant predictor: variance around the mean.
      return math.max(0.0, syy - sy * sy / n)
    }
    val a = (n * sxy - sx * sy) / den
    val b = (sy - a * sx) / n
    // RSS = Σ(y - a·xp - b)²
    var rss = syy - 2 * a * sxy - 2 * b * sy + a * a * sxx + 2 * a * b * sx + n * b * b
    if (rss < 0) rss = 0.0
    rss
  }

  override def update(x: Double): Option[Long] = {
    tau += 1
    if (fill < c) { buf(fill) = x; fill += 1; return None }
    System.arraycopy(buf, 1, buf, 0, c - 1)
    buf(c - 1) = x
    if (tau - lastCp < half) return None
    val full = arCost(0, c)
    if (full <= 1e-12) return None
    val gain = (full - arCost(0, half) - arCost(half, c)) / full
    if (gain > threshold) {
      lastCp = tau
      Some(tau - half) // the split sits at the buffer centre
    } else None
  }
}
