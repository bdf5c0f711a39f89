package repro.core

import repro.core.MathUtil._

/** SuSS — "Summary Statistics Subsequence" window size selection
  * (Ermshaus et al., ClaSP, DAMI 2023), used by ClaSS to learn the
  * subsequence width `w` from its warm-up observations (Subsection 3.4;
  * [[ClaSSConfig.effectiveWarmup]]).
  *
  * Idea: for a candidate width, compare the summary statistics
  * (mean, std, min-max range) of every sliding window against the global
  * statistics; the smallest width whose normalized agreement exceeds
  * [[Threshold]] captures (roughly) the temporal pattern length. Found via
  * exponential plus binary search — expected `O(n log w)`.
  */
object Suss {

  /** Lower end of the width search, and the smallest width returned. */
  final val LowerBound = 10

  /** Normalized agreement a width's statistics must exceed. */
  final val Threshold = 0.89

  /** Mean statistical deviation of `width`-windows from the global stats. */
  private def score(ts: Array[Double], width: Int,
                    gMean: Double, gStd: Double, gRange: Double): Double = {
    val n = ts.length
    val w = math.max(1, math.min(width, n))
    val mins = slidingMin(ts, n, w)
    val maxs = slidingMax(ts, n, w)
    val m = n - w + 1
    // Running sums over ts[0, i) (a) and ts[0, i + w) (b), and of squares.
    var a = 0.0; var aSq = 0.0; var b = 0.0; var bSq = 0.0
    var i = 0
    while (i < w) { val v = ts(i); b += v; bSq += v * v; i += 1 }
    var acc = 0.0
    i = 0
    while (i < m) {
      val dMean = (b - a) / w - gMean
      val dStd = windowStd(b - a, bSq - aSq, w) - gStd
      val dRange = (maxs(i) - mins(i)) - gRange
      acc += math.sqrt(dMean * dMean + dStd * dStd + dRange * dRange)
      val u = ts(i); a += u; aSq += u * u
      if (i < m - 1) { val v = ts(i + w); b += v; bSq += v * v }
      i += 1
    }
    acc / m / math.sqrt(w.toDouble)
  }

  /** Learn a subsequence width from `ts`.
    *
    * @param ts       the warm-up observations (ClaSS passes its first
    *                 `effectiveWarmup` ones)
    * @param maxWidth hard cap on the returned width (ClaSS passes `d/10` so
    *                 the sliding window always holds many pattern instances)
    * @return the learned width, in `[LowerBound, maxWidth]`
    */
  def learnWidth(ts: Array[Double], maxWidth: Int = Int.MaxValue): Int = {
    val n = ts.length
    require(n >= 4 * LowerBound, s"need at least ${4 * LowerBound} warm-up points, got $n")
    // Min-max normalize so the three statistics share a scale.
    var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    var i = 0
    while (i < n) { val v = ts(i); if (v < mn) mn = v; if (v > mx) mx = v; i += 1 }
    val norm = new Array[Double](n)
    val span = mx - mn
    i = 0
    if (span > 0) while (i < n) { norm(i) = (ts(i) - mn) / span; i += 1 }
    else return math.min(LowerBound, maxWidth) // constant signal: any width works

    var s = 0.0; var ss = 0.0
    i = 0
    while (i < n) { s += norm(i); ss += norm(i) * norm(i); i += 1 }
    val gMean = s / n
    val gStd = math.sqrt(math.max(0.0, ss / n - gMean * gMean))
    val gRange = 1.0 // min-max normalized

    val maxScore = score(norm, 1, gMean, gStd, gRange)
    val minScore = score(norm, n - 1, gMean, gStd, gRange)
    val scale = maxScore - minScore
    if (scale <= 0) return math.min(LowerBound, maxWidth)
    def normalized(width: Int): Double = 1.0 - (score(norm, width, gMean, gStd, gRange) - minScore) / scale

    // Exponential search for the first power of two above the threshold.
    var exp = 0
    var found = false
    while (!found) {
      exp += 1
      val width = 1 << exp
      if (width >= n - 1) found = true
      else if (normalized(width) > Threshold) found = true
    }
    var lo = math.max(LowerBound, 1 << (exp - 1))
    var hi = math.min((1 << exp) + 1, n - 1)
    // Binary search within the bracket for the threshold crossing.
    while (lo <= hi) {
      val mid = (lo + hi) / 2
      val sc = normalized(mid)
      if (sc < Threshold) lo = mid + 1
      else if (sc > Threshold) hi = mid - 1
      else { lo = mid; hi = mid - 1 }
    }
    math.max(LowerBound, math.min(2 * lo, maxWidth))
  }
}
