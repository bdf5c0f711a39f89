package repro.core

/** Pearson correlations between the newest `w`-length subsequence of a
  * sliding window and every subsequence in it, `O(d)` per point. The exact
  * streaming k-NN ([[StreamingKnn]]) keeps its rows on top of this stream;
  * FLOSS ([[repro.baselines.Floss]]) keeps its right-pointing arcs on it.
  *
  * The correlations come from centred co-moments
  * `cov(i, e) = Σ (x_{i+m} − μ_i)(x_{e+m} − μ_e)`, advanced along each
  * diagonal by the update of SCAMP (Zimmerman et al., SoCC 2019)
  * `cov(i, e) = cov(i−1, e−1) + df_i·dg_e + df_e·dg_i` with
  * `df_i = (x_{i+w−1} − x_{i−1})/2` and
  * `dg_i = (x_{i+w−1} − μ_i) + (x_{i−1} − μ_{i−1})`; this replaces the
  * paper's uncentred dot products (Equations 3–5), which cancel at large
  * offsets. Each subsequence's mean, `1/sqrt(Σ(x − μ)²)`, `df` and `dg` are
  * computed once, when it enters, so a correlation is
  * `cov(i, e)·(1/σ_i)·(1/σ_e)` with no square root or division.
  *
  * @param d sliding window size (points)
  * @param w subsequence width
  * @param start stream position of the first point (0 outside the tests)
  */
final class CorrelationStream private[core] (val d: Int, val w: Int, start: Long)
    extends Serializable {
  def this(d: Int, w: Int) = this(d, w, 0L)

  require(w >= 3, s"subsequence width must be >= 3, got $w")
  // d > w: with a single row nothing shifts, so df/dg are never set and the
  // co-moment would stop advancing once the window evicts.
  require(d > w, s"window d=$d not longer than the subsequence width $w")

  /** Exclusion radius: subsequences closer than this many positions are
    * trivial matches, which neither the k-NN rows nor FLOSS's arcs admit.
    */
  val exclusion: Int = math.max(1, (3 * w) / 2)

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

  /** Absolute position of the point at window index 0. */
  def windowStart: Long = tau - len

  /** Number of points currently buffered. */
  def length: Int = len

  /** Whether [[correlations]] holds this step's values (true once `len >= w`). */
  def hasCorrelations: Boolean = len >= w

  /** Window index of the newest subsequence (valid when [[hasCorrelations]]). */
  def newestIndex: Int = len - w

  /** Correlations between the newest subsequence and every subsequence
    * `i <= newestIndex`, recomputed on every update. Shared scratch buffer:
    * read-only, valid until the next `update` (and not kept across
    * serialisation).
    */
  def correlations: Array[Double] = scratch()

  private def scratch(): Array[Double] = {
    if (corrScratch == null) corrScratch = new Array[Double](maxRows)
    corrScratch
  }

  /** Ingest one observation. When the window was full (`length == d`), the
    * oldest point and its subsequence leave, and every subsequence's index
    * drops by one.
    */
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
}
