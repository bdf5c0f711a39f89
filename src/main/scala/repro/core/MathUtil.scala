package repro.core

/** Numeric helpers shared by the segmenters: normal-tail probabilities with
  * enough dynamic range for the paper's `1e-50` significance level, a
  * window's standard deviation from its running sums, and sliding-window
  * minima and maxima.
  */
object MathUtil {

  /** Complementary error function.
    *
    * Chebyshev approximation (Numerical Recipes); fractional error below
    * `1.2e-7` for all `x`, which is ample for comparing p-values against
    * thresholds like `1e-50` (the value itself stays well inside double
    * range down to ~`erfc(26) ≈ 1e-296`).
    */
  def erfc(x: Double): Double = {
    val z = math.abs(x)
    val t = 1.0 / (1.0 + 0.5 * z)
    val ans = t * math.exp(
      -z * z - 1.26551223 + t * (1.00002368 + t * (0.37409196 + t * (0.09678418 +
        t * (-0.18628806 + t * (0.27886807 + t * (-1.13520398 + t * (1.48851587 +
          t * (-0.82215223 + t * 0.17087277))))))))
    )
    if (x >= 0) ans else 2.0 - ans
  }

  /** Two-sided tail probability of a standard normal: `P(|Z| >= |z|)`.
    * Clamped to `[0, 1]` — the Chebyshev `erfc` overshoots 1 by ~3e-8 at 0.
    */
  def normalTwoSidedP(z: Double): Double =
    math.min(1.0, erfc(math.abs(z) / math.sqrt(2.0)))

  /** Population standard deviation of a width-`w` window from the sum and
    * the sum of squares of its values (floored at 0 against cancellation).
    */
  @inline def windowStd(sum: Double, sumSq: Double, w: Int): Double = {
    val m = sum / w
    val v = sumSq / w - m * m
    if (v <= 0.0) 0.0 else math.sqrt(v)
  }

  /** Sliding-window minima over windows of width `w`: `out(i) = min(x(i..i+w-1))`
    * for `i` in `[0, n-w]`. Monotonic-deque algorithm, O(n).
    */
  def slidingMin(x: Array[Double], n: Int, w: Int): Array[Double] =
    slidingExtreme(x, n, w, min = true)

  /** Sliding-window maxima, counterpart of [[slidingMin]]. */
  def slidingMax(x: Array[Double], n: Int, w: Int): Array[Double] =
    slidingExtreme(x, n, w, min = false)

  private def slidingExtreme(x: Array[Double], n: Int, w: Int, min: Boolean): Array[Double] = {
    require(w >= 1 && w <= n, s"invalid window $w for length $n")
    val out = new Array[Double](n - w + 1)
    val deque = new Array[Int](n)
    var head = 0; var tail = 0 // deque content: indices in [head, tail)
    var i = 0
    while (i < n) {
      while (tail > head && (if (min) x(deque(tail - 1)) >= x(i) else x(deque(tail - 1)) <= x(i)))
        tail -= 1
      deque(tail) = i; tail += 1
      if (deque(head) <= i - w) head += 1
      if (i >= w - 1) out(i - w + 1) = x(deque(head))
      i += 1
    }
    out
  }
}
