package repro.core

/** Exact streaming k-nearest-neighbour index over the `w`-length subsequences
  * of a sliding window (Algorithm 2 of the paper), `O(k·d)` per point.
  *
  * For every incoming point the index
  *
  *  (a) computes the Pearson correlations between the newest subsequence `e`
  *      and all others in `O(d)` from centred co-moments
  *      `cov(i, e) = Σ (x_{i+m} − μ_i)(x_{e+m} − μ_e)`, advanced along each
  *      diagonal by the update of SCAMP (Zimmerman et al., SoCC 2019)
  *      `cov(i, e) = cov(i−1, e−1) + df_i·dg_e + df_e·dg_i` with
  *      `df_i = (x_{i+w−1} − x_{i−1})/2` and
  *      `dg_i = (x_{i+w−1} − μ_i) + (x_{i−1} − μ_{i−1})`; this replaces the
  *      paper's uncentred dot products (Equations 3–5), which cancel at large
  *      offsets. Each subsequence's mean, `1/sqrt(Σ(x − μ)²)`, `df` and `dg`
  *      are computed once, when it enters, so a correlation is
  *      `cov(i, e)·(1/σ_i)·(1/σ_e)` with no square root or division,
  *  (b) appends the newest subsequence's k-NN row (top-k over its
  *      predecessors, with an exclusion radius of `3/2·w` against trivial
  *      matches), and
  *  (c) updates the rows of older subsequences for which the newest one is a
  *      closer neighbour than their current k-th.
  *
  * Both (b) and (c) go through one sorted top-k insertion.
  *
  * Neighbour identities are stored as **absolute** subsequence positions
  * (index of the subsequence's first point since stream start) in an `Int`,
  * so they wrap after 2^31 points; only their differences are meaningful,
  * and those stay exact. This encodes the paper's "shift k-NN offsets left,
  * negative means out-of-window" step without an O(k·d) decrement pass:
  * window-relative offsets are derived on read and may be negative, which
  * the ClaSP scorer maps to class zero.
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
  * @param start stream position of the first point (0 outside the tests)
  */
final class StreamingKnn private[core] (val d: Int, val w: Int, val k: Int, start: Long)
    extends Serializable {
  def this(d: Int, w: Int, k: Int) = this(d, w, k, 0L)

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
  private var tau = start // position of the next point

  // --- centred co-moments and per-row statistics ---------------------------
  // cov(i): co-moment of subsequence i with the newest one, e = len-w.
  private val cov = new Array[Double](maxRows)
  // Per row, set when the row enters and shifted with the rows: mean, inverse
  // norm (0 for a flat row) and the update terms df, dg (row 0's are never
  // read again). Each follows from the window alone, so they are not state:
  // not serialised, and rebuilt with the same doubles on the first update
  // after deserialisation.
  @transient private var mu: Array[Double] = _
  @transient private var inv: Array[Double] = _
  @transient private var df: Array[Double] = _
  @transient private var dg: Array[Double] = _
  // This step's correlations: not state either; hot loops read it through a local.
  @transient private var corrScratch: Array[Double] = _

  // --- k-NN rows (row i <-> window subsequence index i) --------------------
  private val nnPos = new Array[Int](maxRows * k) // absolute positions, sorted by corr desc
  private val nnCorr = new Array[Double](maxRows * k)
  private var rows = 0
  // Newest-subsequence index from which every row holds k admissible neighbours.
  private val readyRow = 2 * exclusion + k - 2

  /** Absolute position of the point at window index 0. */
  def windowStart: Long = tau - len

  /** Number of points currently buffered. */
  def length: Int = len

  /** Number of k-NN rows (one per in-window subsequence). */
  def numRows: Int = rows

  /** Whether every row holds `k` neighbours yet. */
  def ready: Boolean = rows > readyRow

  /** Absolute position, modulo 2^32 like [[neighborPos]], of the subsequence
    * behind row `i`.
    */
  def rowPos(i: Int): Int = (windowStart + i).toInt

  /** Absolute position, modulo 2^32, of neighbour `j` (0-based, by descending
    * correlation) of row `i`: subtract another such position, never compare.
    */
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
    * this without a second correlation pipeline.
    */
  def correlations: Array[Double] = scratch()

  private def scratch(): Array[Double] = {
    if (corrScratch == null) corrScratch = new Array[Double](maxRows)
    corrScratch
  }

  /** Ingest one observation; updates co-moments and k-NN rows. */
  def update(x: Double): Unit = {
    if (mu == null) rebuildRowStats()
    val evicted = len == d
    if (evicted) {
      System.arraycopy(win, 1, win, 0, d - 1)
      win(d - 1) = x
      System.arraycopy(mu, 1, mu, 0, maxRows - 1)
      System.arraycopy(inv, 1, inv, 0, maxRows - 1)
      System.arraycopy(df, 1, df, 0, maxRows - 1)
      System.arraycopy(dg, 1, dg, 0, maxRows - 1)
    } else {
      win(len) = x
      len += 1
    }
    tau += 1
    if (len < w) return
    val e = len - w // index of the newest subsequence
    enterRow(e)

    // One pass: advance each co-moment along its diagonal and read the
    // correlation off it. After eviction, data and the newest subsequence
    // shift together, so cov stays index-aligned; while growing, slots shift
    // right and slot 0 is computed directly.
    val corr = scratch()
    val dfE = df(e); val dgE = dg(e); val invE = inv(e)
    if (evicted) {
      var i = 0
      while (i <= e) {
        val c = cov(i) + df(i) * dgE + dfE * dg(i)
        cov(i) = c
        corr(i) = math.max(-1.0, math.min(1.0, c * inv(i) * invE))
        i += 1
      }
    } else {
      var i = e
      while (i > 0) {
        val c = cov(i - 1) + df(i) * dgE + dfE * dg(i)
        cov(i) = c
        corr(i) = math.max(-1.0, math.min(1.0, c * inv(i) * invE))
        i -= 1
      }
      val mu0 = mu(0); val muE = mu(e)
      var c = 0.0
      var m = 0
      while (m < w) { c += (win(m) - mu0) * (win(e + m) - muE); m += 1 }
      cov(0) = c
      corr(0) = math.max(-1.0, math.min(1.0, c * inv(0) * invE))
    }

    maintainRows(e, evicted, corr)
  }

  /** Statistics of row `i`, from its `w` points and, for `i > 0`, the point
    * and the mean of row `i - 1`. The mean is taken relative to the row's
    * first point (exact for a flat row), then the squares are centred on it.
    */
  private def enterRow(i: Int): Unit = {
    val x0 = win(i)
    var s = 0.0
    var m = 1
    while (m < w) { s += win(i + m) - x0; m += 1 }
    val mean = x0 + s / w
    var ss = 0.0
    m = 0
    while (m < w) { val v = win(i + m) - mean; ss += v * v; m += 1 }
    mu(i) = mean
    inv(i) = if (ss > 0.0) 1.0 / math.sqrt(ss) else 0.0
    if (i > 0) {
      val hi = win(i + w - 1); val lo = win(i - 1)
      df(i) = 0.5 * (hi - lo)
      dg(i) = (hi - mean) + (lo - mu(i - 1))
    }
  }

  /** Per-row statistics of every in-window row, after construction or
    * deserialisation.
    */
  private def rebuildRowStats(): Unit = {
    mu = new Array[Double](maxRows)
    inv = new Array[Double](maxRows)
    df = new Array[Double](maxRows)
    dg = new Array[Double](maxRows)
    var i = 0
    while (i <= len - w) { enterRow(i); i += 1 }
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
    val base = windowStart.toInt // positions wrap, see neighborPos
    val newPos = base + e
    var i = 0
    while (i <= e - exclusion) {
      insertIfCloser(e, base + i, corr(i))
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
