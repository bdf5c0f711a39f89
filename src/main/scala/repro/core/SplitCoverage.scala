package repro.core

/** Algorithm 3's misclassification counts at every split position, kept
  * current across k-NN steps, and a branch-and-bound test of whether any
  * split of a range can reach a score.
  *
  * Split positions are absolute: split `s` labels the in-scope subsequences
  * before position `s` zero and the rest one. The subsequence at position `P`
  * whose k-NN vote turns 0 at split `t` (its cached turn position plus one) is
  *  - true 1, predicted 0 (n10) exactly for `s ∈ [t, P]`, and
  *  - true 0, predicted 1 (n01) exactly for `s ∈ [P+1, t−1]`.
  * These intervals do not depend on the scope start, only which rows count
  * does. A = n10 and B = n01 per split position are range-add counts in a
  * segment tree whose nodes hold min A, min B and min(A+B). At a split with
  * `zc` zero-labelled subsequences of a scope of `m`, `n00 = zc − B` and
  * `n11 = m − zc − A`.
  *
  * Keeping the counts current costs a few range-adds per k-NN step:
  *  - a turn change `t → t'` moves only the splits `[min(t,t'), max(t,t')−1]`:
  *    A for those at or before `P`, B the other way for those after it;
  *  - a new row adds its n10 interval (its neighbours all lie before it);
  *  - a row that slides out of a scope clamped to the window start removes
  *    its n01 interval (its n10 interval ends before every in-scope split).
  * Any other change of the scope, a k-NN other than the last one seen, or a
  * skipped update rebuilds the counts in O(d) from
  * [[StreamingKnn.turnPositions]].
  *
  * The leaves cover `n >= 2·(maxRows+1)` split positions from `base`, the
  * window start at the last rebuild; once the window's newest row would pass
  * the last leaf, the counts are rebuilt from the current window start, so no
  * range ever wraps. The tree uses range-adds without push-down: a node's
  * value is the min over its children plus its own pending add, so the true
  * min of a subtree is its root's value plus the adds of its ancestors.
  *
  * Not state: a [[ClaspScorer]] holds one, and rebuilds it after
  * deserialisation.
  *
  * @param maxRows most k-NN rows the window holds (`d - w + 1`)
  */
private[core] final class SplitCoverage(maxRows: Int) {
  private val n = Integer.highestOneBit(2 * (maxRows + 1) - 1) << 1
  private val minA = new Array[Int](2 * n)
  private val minB = new Array[Int](2 * n)
  private val minAB = new Array[Int](2 * n)
  private val addA = new Array[Int](n) // pending adds of the internal nodes
  private val addB = new Array[Int](n)
  // Per row position (relative to base): the turn point its counts hold.
  private val turnAt = new Array[Int](n)
  private var base = 0L
  // Rows [from, end) relative to base are counted: the scope.
  private var from = 0
  private var end = 0
  private var synced: StreamingKnn = _
  private var syncedClock = 0L

  /** Bring the counts in step with `knn`'s rows and the scope
    * `[scopeStart, knn.numRows)`.
    */
  def sync(knn: StreamingKnn, scopeStart: Int): Unit = {
    val ws = knn.windowStart
    val clock = ws + knn.length // points ingested since the stream's start
    val steps = clock - syncedClock
    if ((knn ne synced) || steps < 0 || steps > 1 || ws + knn.numRows > base + n) rebuild(knn, scopeStart)
    else {
      if (steps == 1) step(knn)
      if ((ws - base).toInt + scopeStart != from) rebuild(knn, scopeStart)
    }
  }

  /** Apply the last k-NN update: the row that left the window, the rows
    * whose turn point changed, the new row.
    */
  private def step(knn: StreamingKnn): Unit = {
    val rel = (knn.windowStart - base).toInt
    val baseInt = base.toInt // turn positions wrap alike
    val turns = knn.turnPositions
    while (from < rel) { removeRow(from); from += 1 }
    val changed = knn.changedTurns
    var c = 0
    while (c < knn.changedTurnCount) {
      val p = rel + changed(c)
      if (p >= from) retarget(p, turns(changed(c)) + 1 - baseInt)
      c += 1
    }
    val newEnd = rel + knn.numRows
    while (end < newEnd) { addRow(end, turns(end - rel) + 1 - baseInt); end += 1 }
    syncedClock += 1
  }

  private def rebuild(knn: StreamingKnn, scopeStart: Int): Unit = {
    base = knn.windowStart
    from = scopeStart
    end = knn.numRows
    synced = knn
    syncedClock = base + knn.length
    val baseInt = base.toInt
    val turns = knn.turnPositions
    // The leaves first hold the difference arrays of A and B.
    java.util.Arrays.fill(minA, n, 2 * n, 0)
    java.util.Arrays.fill(minB, n, 2 * n, 0)
    var p = from
    while (p < end) {
      val t = turns(p) + 1 - baseInt
      turnAt(p) = t
      if (t <= p) { minA(n + math.max(t, 0)) += 1; minA(n + p + 1) -= 1 }
      else if (t > p + 1) { minB(n + p + 1) += 1; minB(n + t) -= 1 }
      p += 1
    }
    var i = n + 1
    while (i < 2 * n) { minA(i) += minA(i - 1); minB(i) += minB(i - 1); i += 1 }
    i = n
    while (i < 2 * n) { minAB(i) = minA(i) + minB(i); i += 1 }
    java.util.Arrays.fill(addA, 0)
    java.util.Arrays.fill(addB, 0)
    i = n - 1
    while (i >= 1) { pullNode(i); i -= 1 }
  }

  private def addRow(p: Int, t: Int): Unit = {
    turnAt(p) = t
    if (t <= p) add(true, t, p, 1)
    else if (t > p + 1) add(false, p + 1, t - 1, 1)
  }

  private def removeRow(p: Int): Unit = {
    val t = turnAt(p)
    if (t > p + 1) add(false, p + 1, t - 1, -1)
  }

  private def retarget(p: Int, t2: Int): Unit = {
    val t = turnAt(p)
    if (t2 == t) return
    turnAt(p) = t2
    val lo = math.min(t, t2)
    val hi = math.max(t, t2) - 1
    // An earlier turn predicts 0 on [t2, t-1]: n11 -> n10 up to p, n01 -> n00 after.
    val d = if (t2 < t) 1 else -1
    add(true, lo, math.min(hi, p), d)
    add(false, math.max(lo, p + 1), hi, -d)
  }

  /** Add `v` to A (or B) over the leaves `[l, r]`, clipped at leaf 0. */
  private def add(toA: Boolean, l: Int, r: Int, v: Int): Unit = {
    val l0 = math.max(l, 0)
    if (l0 > r) return
    var lo = l0 + n
    var hi = r + n + 1
    while (lo < hi) {
      if ((lo & 1) == 1) { applyAdd(toA, lo, v); lo += 1 }
      if ((hi & 1) == 1) { hi -= 1; applyAdd(toA, hi, v) }
      lo >>= 1; hi >>= 1
    }
    pullPath(l0 + n)
    pullPath(r + n)
  }

  private def applyAdd(toA: Boolean, p: Int, v: Int): Unit = {
    if (toA) { minA(p) += v; if (p < n) addA(p) += v }
    else { minB(p) += v; if (p < n) addB(p) += v }
    minAB(p) += v
  }

  private def pullPath(leaf: Int): Unit = {
    var p = leaf >> 1
    while (p >= 1) { pullNode(p); p >>= 1 }
  }

  private def pullNode(p: Int): Unit = {
    val l = 2 * p
    minA(p) = math.min(minA(l), minA(l + 1)) + addA(p)
    minB(p) = math.min(minB(l), minB(l + 1)) + addB(p)
    minAB(p) = math.min(minAB(l), minAB(l + 1)) + addA(p) + addB(p)
  }

  /** A = n10 at the split with `zc` zero-labelled subsequences. */
  def a(zc: Int): Int = pointValue(minA, addA, from + zc)

  /** B = n01 at the split with `zc` zero-labelled subsequences. */
  def b(zc: Int): Int = pointValue(minB, addB, from + zc)

  private def pointValue(v: Array[Int], pending: Array[Int], leaf: Int): Int = {
    var p = (leaf + n) >> 1
    var s = v(leaf + n)
    while (p >= 1) { s += pending(p); p >>= 1 }
    s
  }

  // The range and score of the running descent.
  private var qLo = 0
  private var qHi = 0
  private var useF1 = true
  private var threshold = 0.0
  private var visit: (Int, Int, Boolean, Double) => Unit = _

  /** Whether no split with `zc ∈ [zcLo, zcHi]` zero-labelled subsequences
    * scores `>= minScore`.
    *
    * Over a range `[lo, hi]` of splits, `n00 <= hi − min B`,
    * `n11 <= m − lo − min A` and `n10 + n01 >= min(A+B)`. A class's F1,
    * `2h/(2h+e)`, rises with its hits `h` and falls with the errors `e`, so
    * [[ClaspScorer.macroF1]] of those three bounds every split's macro F1 in
    * the range from above (accuracy: `1 − min(A+B)/m`). The bound runs the
    * sweep's own expression, and correctly rounded division, addition and
    * halving are monotone, so it bounds the sweep's floating-point score too;
    * at a leaf it is that score, bit for bit. The descent prunes every range
    * whose bound is below `minScore`, and stops at the first leaf that
    * reaches it.
    *
    * @param visit called with each range the descent checks (local `lo`,
    *              `hi`, whether it is one leaf, its bound); `null` outside
    *              the tests
    */
  def rejects(zcLo: Int, zcHi: Int, macroF1: Boolean, minScore: Double,
              visit: (Int, Int, Boolean, Double) => Unit = null): Boolean = {
    qLo = from + zcLo
    qHi = from + zcHi
    useF1 = macroF1
    threshold = minScore
    this.visit = visit
    !reaches(1, 0, n - 1, 0, 0)
  }

  private def reaches(p: Int, nl: Int, nr: Int, pendA: Int, pendB: Int): Boolean = {
    val l = math.max(nl, qLo)
    val r = math.min(nr, qHi)
    if (l > r) return false
    val m = end - from
    val a = minA(p) + pendA
    val b = minB(p) + pendB
    val e = minAB(p) + pendA + pendB
    val bound =
      if (useF1) ClaspScorer.macroF1(r - from - b, m - (l - from) - a, e)
      else (m - e).toDouble / m
    if (visit != null) visit(l - from, r - from, p >= n, bound)
    if (bound < threshold) false
    else if (p >= n) true
    else {
      val mid = (nl + nr) >>> 1
      val ca = pendA + addA(p)
      val cb = pendB + addB(p)
      reaches(2 * p, nl, mid, ca, cb) || reaches(2 * p + 1, mid + 1, nr, ca, cb)
    }
  }
}
