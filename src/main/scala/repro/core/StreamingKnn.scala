package repro.core

/** Exact streaming k-nearest-neighbour index over the `w`-length subsequences
  * of a sliding window (Algorithm 2 of the paper), `O(k·d)` per point.
  *
  * For every incoming point the index
  *
  *  (a) takes the Pearson correlations between the newest subsequence `e`
  *      and all others from its [[CorrelationStream]],
  *  (b) appends the newest subsequence's k-NN row (top-k over its
  *      predecessors, with the stream's exclusion radius of `3/2·w` against
  *      trivial matches), and
  *  (c) updates the rows of older subsequences for which the newest one is a
  *      closer neighbour than their current k-th.
  *
  * Both (b) and (c) go through one sorted top-k insertion.
  *
  * Each row also caches its turn position: the `ceil(k/2)`-th smallest of
  * its neighbour positions, from which the ClaSP scorer reads the split at
  * which the row's k-NN vote turns to class zero. The entry is refreshed
  * only when a neighbour enters the row (and once for each new row), so the
  * scorer needs no per-row sort. The cache follows from the rows alone: it is
  * `@transient`, not serialised, and rebuilt on first use after
  * deserialisation. Each update also lists the older rows whose turn position
  * it changed ([[changedTurns]]), so the split counts of the
  * [[ClaspScorer]] follow the rows without a pass over them.
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

  private val stream = new CorrelationStream(d, w, start)
  require(k >= 1, s"k must be >= 1, got $k")

  /** Exclusion radius: neighbours closer than this many positions are trivial. */
  def exclusion: Int = stream.exclusion
  require(d >= w + 2 * exclusion + k,
    s"window d=$d too small for w=$w, k=$k (needs >= ${w + 2 * exclusion + k})")

  private val maxRows = d - w + 1

  // --- k-NN rows (row i <-> window subsequence index i) --------------------
  private val nnPos = new Array[Int](maxRows * k) // absolute positions, sorted by corr desc
  private val nnCorr = new Array[Double](maxRows * k)
  private var rows = 0
  // Per row: its turn position (see turnPositions), shifted with the rows.
  // Not state: rebuilt from nnPos after deserialisation, as is the scratch
  // that sorts one row's positions.
  @transient private var turnArr: Array[Int] = _
  @transient private var sortScratch: Array[Int] = _
  // Rows whose turn position the last update changed (see changedTurns).
  @transient private var changedArr: Array[Int] = _
  @transient private var changedLen = 0
  // Newest-subsequence index from which every row holds k admissible neighbours.
  private val readyRow = 2 * exclusion + k - 2

  /** Absolute position of the point at window index 0. */
  def windowStart: Long = stream.windowStart

  /** Number of points currently buffered. */
  def length: Int = stream.length

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

  /** Per row `i`, the `ceil(k/2)`-th smallest of its neighbour positions,
    * compared by difference and kept modulo 2^32 like [[neighborPos]]. Shared
    * buffer: read-only, valid until the next `update`.
    */
  def turnPositions: Array[Int] = {
    if (turnArr == null) rebuildTurns() // before update moves windowStart
    turnArr
  }

  /** Row indices (after the last `update`) of the rows, other than the new
    * one, whose turn position the last `update` changed; the first
    * [[changedTurnCount]] entries are valid. Shared buffer, read-only; empty
    * until the first `update` after deserialisation.
    */
  def changedTurns: Array[Int] = changedArr

  /** Number of valid entries of [[changedTurns]]. */
  def changedTurnCount: Int = changedLen

  /** Ingest one observation; updates the correlations, then the k-NN rows. */
  def update(x: Double): Unit = {
    val turns = turnPositions
    changedLen = 0
    val evicted = stream.length == d
    stream.update(x)
    if (stream.hasCorrelations) maintainRows(stream.newestIndex, evicted, stream.correlations, turns)
  }

  /** (b) the newest subsequence's row: top-k among indices `[0, e-exclusion]`;
    * (c) the older rows in which the newest subsequence is a closer neighbour.
    */
  private def maintainRows(e: Int, evicted: Boolean, corr: Array[Double],
                           turns: Array[Int]): Unit = {
    if (evicted) {
      System.arraycopy(nnPos, k, nnPos, 0, (maxRows - 1) * k)
      System.arraycopy(nnCorr, k, nnCorr, 0, (maxRows - 1) * k)
      System.arraycopy(turns, 1, turns, 0, maxRows - 1)
    }
    val base = windowStart.toInt // positions wrap, see neighborPos
    val newPos = base + e
    // Empty slots hold the row's own position, so every slot stays within
    // the window's reach of the row and compares by difference.
    java.util.Arrays.fill(nnPos, e * k, e * k + k, newPos)
    java.util.Arrays.fill(nnCorr, e * k, e * k + k, Double.NegativeInfinity)
    rows = e + 1
    val lim = e - exclusion
    var i = 0
    while (i <= lim) {
      insertIfCloser(e, base + i, corr(i))
      if (insertIfCloser(i, newPos, corr(i))) {
        val t = turnOf(i, base + i)
        if (t != turns(i)) { turns(i) = t; changedArr(changedLen) = i; changedLen += 1 }
      }
      i += 1
    }
    turns(e) = turnOf(e, newPos)
    if (e == readyRow) {
      i = 0
      while (i <= e) {
        require(nnCorr(i * k + k - 1) != Double.NegativeInfinity, s"row $i has fewer than $k neighbours")
        i += 1
      }
    }
  }

  /** Insert `pos` into row `i` if its correlation beats the row's worst;
    * whether it did.
    */
  private def insertIfCloser(i: Int, pos: Int, c: Double): Boolean = {
    val base = i * k
    if (c <= nnCorr(base + k - 1)) return false
    var ins = k - 1
    while (ins > 0 && nnCorr(base + ins - 1) < c) {
      nnCorr(base + ins) = nnCorr(base + ins - 1)
      nnPos(base + ins) = nnPos(base + ins - 1)
      ins -= 1
    }
    nnCorr(base + ins) = c
    nnPos(base + ins) = pos
    true
  }

  /** The `ceil(k/2)`-th smallest neighbour position of row `i`, whose own
    * position is `self`: an insertion sort of the offsets from `self`.
    */
  private def turnOf(i: Int, self: Int): Int = {
    val sorted = sortScratch
    val base = i * k
    var t = 0
    while (t < k) {
      val off = nnPos(base + t) - self
      var s = t
      while (s > 0 && sorted(s - 1) > off) { sorted(s) = sorted(s - 1); s -= 1 }
      sorted(s) = off
      t += 1
    }
    self + sorted((k + 1) / 2 - 1)
  }

  /** Turn positions of every row, after construction or deserialisation. */
  private def rebuildTurns(): Unit = {
    sortScratch = new Array[Int](k)
    turnArr = new Array[Int](maxRows)
    changedArr = new Array[Int](maxRows)
    changedLen = 0
    val base = windowStart.toInt
    var i = 0
    while (i < rows) { turnArr(i) = turnOf(i, base + i); i += 1 }
  }
}
