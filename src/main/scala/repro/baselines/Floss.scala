package repro.baselines

import repro.core.{CorrelationStream, StreamSegmenter}

/** FLOSS — Fast Low-cost Online Semantic Segmentation
  * (Gharghabi et al., DMKD 2018).
  *
  * Maintains, for every subsequence of the sliding window, its best
  * *right-pointing* 1-nearest-neighbour arc — the one-directional constraint
  * of the original FLOSS: arcs only point toward newer data, so an arc can
  * never dangle out of the window as old data is evicted. The Corrected Arc
  * Curve (CAC) divides the arc-crossing count at every offset by the count
  * expected under no structure; for uniformly distributed right-pointing
  * arcs the expectation at offset `i` of `m` is `(m-i)·(H_m − H_{m−i})`
  * (harmonic numbers), the 1-directional analogue of FLUSS's parabola. A CAC
  * valley below `threshold` (paper-tuned 0.45) is a change point; an
  * exclusion zone of `5·w` after each report suppresses repeats, as in the
  * paper's competitor setup.
  *
  * Correlations come from this repo's `O(d)` [[CorrelationStream]], the
  * stream under ClaSS's k-NN rows, instead of FLOSS's `O(d log d)` FFT
  * updates — accuracy-identical, only the runtime constant differs
  * (substitution documented in DESIGN.md §2). FLOSS keeps only its own
  * right-pointing arcs on that stream, no k-NN rows.
  *
  * @param d         sliding window size
  * @param widthHint subsequence width (the paper takes it from annotations)
  */
final class Floss(d: Int, widthHint: Int) extends StreamSegmenter {
  /** CAC valley threshold (paper-tuned 0.45). */
  private val threshold = 0.45
  private val w = math.max(3, math.min(widthHint, d / 10))
  private val stream = new CorrelationStream(d, w)
  private val maxRows = d - w + 1
  private val excl = stream.exclusion

  // Right-pointing 1-NN per window subsequence: best correlation seen so far
  // toward a *newer* subsequence. Aligned with window row indices.
  private val rightPos = new Array[Int](maxRows) // absolute positions, modulo 2^32
  private val rightCorr = new Array[Double](maxRows)

  private val crossings = new Array[Int](maxRows + 2)
  // H_0 .. H_maxRows, the normalisation of every CAC value.
  private val harmonics = Array.tabulate(maxRows + 1)(harmonic)
  private var lastCp = FarPast
  private val exclusionZone = 5 * w

  override def update(x: Double): Option[Long] = {
    val willEvict = stream.length == d
    stream.update(x)
    if (!stream.hasCorrelations) return None
    val e = stream.newestIndex

    // Maintain right-NN rows in window coordinates.
    if (willEvict) {
      System.arraycopy(rightPos, 1, rightPos, 0, maxRows - 1)
      System.arraycopy(rightCorr, 1, rightCorr, 0, maxRows - 1)
    }
    rightCorr(e) = Double.NegativeInfinity // newest row: no right arc yet
    rightPos(e) = -1
    val corr = stream.correlations
    val newestAbs = (stream.windowStart + e).toInt // positions wrap alike
    var i = 0
    val lim = e - excl
    while (i <= lim) {
      if (corr(i) > rightCorr(i)) { rightCorr(i) = corr(i); rightPos(i) = newestAbs }
      i += 1
    }

    val m = e + 1
    if (m < 8 * w) return None // too little context for a stable arc curve

    // Crossing counts via a difference array: arc (j -> r] crosses offsets
    // strictly after j up to r.
    java.util.Arrays.fill(crossings, 0, m + 2, 0)
    val base = stream.windowStart
    var arcs = 0
    i = 0
    while (i < m) {
      if (rightCorr(i) != Double.NegativeInfinity) {
        val r = rightPos(i) - base.toInt
        crossings(i + 1) += 1
        crossings(math.min(r, m) + 1) -= 1
        arcs += 1
      }
      i += 1
    }
    if (arcs < m / 2) return None

    // CAC valley search over the interior; 1-directional idealized curve.
    var minCac = Double.PositiveInfinity
    var argmin = -1
    var acc = 0
    val hM = harmonics(m)
    i = 1
    while (i < m) {
      acc += crossings(i)
      if (i >= 2 * w && i <= m - 2 * w) {
        val ideal = (m - i) * (hM - harmonics(m - i))
        val cac = math.min(1.0, acc / math.max(ideal, 1e-9))
        val absPos = base + i
        if (cac < minCac && absPos > lastCp + exclusionZone) { minCac = cac; argmin = i }
      }
      i += 1
    }
    if (argmin >= 0 && minCac < threshold) {
      val cp = base + argmin
      lastCp = cp
      Some(cp)
    } else None
  }

  /** Harmonic number `H_n`, asymptotic beyond a small exact table. */
  private def harmonic(n: Int): Double =
    if (n <= 0) 0.0
    else if (n < 32) { var s = 0.0; var i = 1; while (i <= n) { s += 1.0 / i; i += 1 }; s }
    else math.log(n.toDouble) + 0.5772156649015329 + 1.0 / (2 * n)
}
