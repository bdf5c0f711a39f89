package repro.core

/** Exact streaming k-nearest-neighbour index over the `w`-length subsequences
  * of a sliding window (Algorithm 2 of the paper), `O(k·d)` per point.
  *
  * For every incoming point the index
  *
  *  (a) computes the Pearson correlations between the newest subsequence and
  *      all others in `O(d)` by maintaining STOMP-style `(w-1)`-length dot
  *      products across overlapping windows (Equations 3–5) and each
  *      subsequence's mean and std from running sums of the window and its
  *      squares (Equations 1–2), advanced in the loop that reads them,
  *  (b) appends the newest subsequence's k-NN row (top-k over its
  *      predecessors, with an exclusion radius of `3/2·w` against trivial
  *      matches), and
  *  (c) updates the rows of older subsequences for which the newest one is a
  *      closer neighbour than their current k-th.
  *
  * Both (b) and (c) go through one sorted top-k insertion.
  *
  * Neighbour identities are stored as **absolute** subsequence positions
  * (index of the subsequence's first point since stream start). This encodes
  * the paper's "shift k-NN offsets left, negative means out-of-window" step
  * without an O(k·d) decrement pass: window-relative offsets are derived on
  * read and may be negative, which the ClaSP scorer maps to class zero.
  *
  * Rows are maintained from the first subsequence on; a new row starts as
  * `k` empty (`-∞`) slots. Rows become available ("ready") once every
  * in-window subsequence has at least `k` admissible neighbours under the
  * exclusion radius. The invariant — verified against a naive reference in
  * the tests — is: the row of subsequence `a` holds the top-k correlations
  * over all subsequences `b` with `|a-b| >= exclusion` that co-existed with
  * `a` in the sliding window.
  *
  * @param d sliding window size (points)
  * @param w subsequence width; must satisfy `d >= w + 2*excl + k` so that the
  *          structure can warm up inside one window
  * @param k number of neighbours per subsequence
  */
final class StreamingKnn(val d: Int, val w: Int, val k: Int) extends Serializable {
  require(w >= 3, s"subsequence width must be >= 3, got $w")
  require(k >= 1, s"k must be >= 1, got $k")

  /** Exclusion radius: neighbours closer than this many positions are trivial. */
  val exclusion: Int = math.max(1, (3 * w) / 2)
  require(d >= w + 2 * exclusion + k,
    s"window d=$d too small for w=$w, k=$k (needs >= ${w + 2 * exclusion + k})")

  private val maxRows = d - w + 1

  // --- sliding window ------------------------------------------------------
  private val win = new Array[Double](d)
  private var len = 0
  private var tau = 0L // total points ingested

  // --- incremental dot products and per-step scratch -----------------------
  // q(i): dot of win[i..i+w-2] with win[e..e+w-2] where e = len-w (invariant
  // restored at the end of every update; see Equations 3 and 5).
  private val q = new Array[Double](maxRows)
  // This step's correlations: not state, so not serialised; rebuilt on the
  // first update after deserialisation. Hot loops read it through a local.
  @transient private var corrScratch: Array[Double] = _

  // --- k-NN rows (row i <-> window subsequence index i) --------------------
  private val nnPos = new Array[Int](maxRows * k) // absolute positions, sorted by corr desc
  private val nnCorr = new Array[Double](maxRows * k)
  private var rows = 0
  // Newest-subsequence index from which every row holds k admissible neighbours.
  private val readyRow = 2 * exclusion + k - 2

  /** Absolute position of the point at window index 0. */
  def windowStart: Int = (tau - len).toInt

  /** Number of points currently buffered. */
  def length: Int = len

  /** Number of k-NN rows (one per in-window subsequence). */
  def numRows: Int = rows

  /** Whether every row holds `k` neighbours yet. */
  def ready: Boolean = rows > readyRow

  /** Absolute position of the subsequence behind row `i`. */
  def rowPos(i: Int): Int = windowStart + i

  /** Absolute position of neighbour `j` (0-based, by descending correlation) of row `i`. */
  def neighborPos(i: Int, j: Int): Int = nnPos(i * k + j)

  /** Correlation of neighbour `j` of row `i`. */
  def neighborCorr(i: Int, j: Int): Double = nnCorr(i * k + j)

  /** Whether [[correlations]] holds this step's values (true once `len >= w`). */
  def hasCorrelations: Boolean = len >= w

  /** Window index of the newest subsequence (valid when [[hasCorrelations]]). */
  def newestIndex: Int = len - w

  /** Correlations between the newest subsequence and every subsequence
    * `i <= newestIndex`, recomputed on every update. Shared scratch buffer:
    * read-only, valid until the next `update` (and not kept across
    * serialisation). FLOSS builds its one-directional arc structure from
    * this without a second dot-product pipeline.
    */
  def correlations: Array[Double] = scratch()

  private def scratch(): Array[Double] = {
    if (corrScratch == null) corrScratch = new Array[Double](maxRows)
    corrScratch
  }

  /** Ingest one observation; updates dot products and k-NN rows. */
  def update(x: Double): Unit = {
    val evicted = len == d
    if (evicted) {
      System.arraycopy(win, 1, win, 0, d - 1)
      win(d - 1) = x
    } else {
      win(len) = x
      len += 1
    }
    tau += 1
    if (len < w) return
    val e = len - w // index of the newest subsequence

    // Maintain the (w-1)-length dot products. After eviction, data and the
    // newest-subsequence alignment shift together, so q stays index-aligned;
    // while growing, slots shift right and slot 0 is computed directly.
    if (!evicted) {
      if (e > 0) System.arraycopy(q, 0, q, 1, e)
      var acc = 0.0
      var m = 0
      while (m < w - 1) { acc += win(m) * win(e + m); m += 1 }
      q(0) = acc
    }

    // Extend to w-length dots (Eq. 3): q(i) += win(i+w-1) * win(len-1).
    val last = win(len - 1)
    var i = 0
    while (i <= e) { q(i) += win(i + w - 1) * last; i += 1 }

    // Means / stds (Eqs. 1–2) from running sums of the window and its squares,
    // added in index order. The newest subsequence's: sums over [0, e), [0, len).
    var lo = 0.0; var loSq = 0.0
    i = 0
    while (i < e) { val v = win(i); lo += v; loSq += v * v; i += 1 }
    var hi = lo; var hiSq = loSq
    while (i < len) { val v = win(i); hi += v; hiSq += v * v; i += 1 }
    val corr = scratch()
    val muE = (hi - lo) / w
    val sigE = MathUtil.windowStd(hi - lo, hiSq - loSq, w)
    // Subsequence i's: a = sum over [0, i), b = sum over [0, i + w).
    var a = 0.0; var aSq = 0.0; var b = 0.0; var bSq = 0.0
    i = 0
    while (i < w) { val v = win(i); b += v; bSq += v * v; i += 1 }
    i = 0
    while (i <= e) {
      val mu = (b - a) / w
      val sig = MathUtil.windowStd(b - a, bSq - aSq, w)
      val c =
        if (sig <= 0.0 || sigE <= 0.0) 0.0
        else (q(i) - w * mu * muE) / (w * sig * sigE)
      corr(i) = math.max(-1.0, math.min(1.0, c))
      val u = win(i); a += u; aSq += u * u
      if (i < e) { val v = win(i + w); b += v; bSq += v * v }
      i += 1
    }

    // Restore (w-1)-length dots for the next update (Eq. 5).
    val first = win(e)
    i = 0
    while (i <= e) { q(i) -= win(i) * first; i += 1 }

    maintainRows(e, evicted, corr)
  }

  /** (b) the newest subsequence's row: top-k among indices `[0, e-exclusion]`;
    * (c) the older rows in which the newest subsequence is a closer neighbour.
    */
  private def maintainRows(e: Int, evicted: Boolean, corr: Array[Double]): Unit = {
    if (evicted) {
      System.arraycopy(nnPos, k, nnPos, 0, (maxRows - 1) * k)
      System.arraycopy(nnCorr, k, nnCorr, 0, (maxRows - 1) * k)
    }
    java.util.Arrays.fill(nnCorr, e * k, e * k + k, Double.NegativeInfinity)
    rows = e + 1
    val newPos = windowStart + e
    var i = 0
    while (i <= e - exclusion) {
      insertIfCloser(e, windowStart + i, corr(i))
      insertIfCloser(i, newPos, corr(i))
      i += 1
    }
    if (e == readyRow) {
      i = 0
      while (i <= e) {
        require(nnCorr(i * k + k - 1) != Double.NegativeInfinity, s"row $i has fewer than $k neighbours")
        i += 1
      }
    }
  }

  /** Insert `pos` into row `i` if its correlation beats the row's worst. */
  private def insertIfCloser(i: Int, pos: Int, c: Double): Unit = {
    val base = i * k
    if (c <= nnCorr(base + k - 1)) return
    var ins = k - 1
    while (ins > 0 && nnCorr(base + ins - 1) < c) {
      nnCorr(base + ins) = nnCorr(base + ins - 1)
      nnPos(base + ins) = nnPos(base + ins - 1)
      ins -= 1
    }
    nnCorr(base + ins) = c
    nnPos(base + ins) = pos
  }
}
