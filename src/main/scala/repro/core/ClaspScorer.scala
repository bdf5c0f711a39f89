package repro.core

/** Classification score used to evaluate each hypothetical split.
  *
  * Modeled as string constants (not case objects) so that kryo-cloned
  * segmenter state inside the Structured Streaming operator keeps working —
  * a deserialized case object would no longer match its singleton pattern.
  */
object ScoreFunction {
  /** Macro-averaged F1 — the paper's default (handles class imbalance). */
  val MacroF1 = "macro-f1"
  /** Plain accuracy — ablation alternative. */
  val Accuracy = "accuracy"
  def validate(s: String): String = {
    require(s == MacroF1 || s == Accuracy, s"unknown score function: $s")
    s
  }
}

/** Result of scoring one sliding-window suffix: the best split and the
  * predicted labels needed by the significance test.
  *
  * @param bestZeroCount number of left (class-0) subsequences at the best
  *                      split; `-1` when no admissible split reached the
  *                      caller's minimum score
  * @param bestScore     cross-validation score of the best split; 0 when
  *                      there is none
  * @param numSubseq     number of subsequences in the scored scope
  */
final case class SplitScore(bestZeroCount: Int, bestScore: Double, numSubseq: Int)

/** Algorithm 3: cross-validating the self-supervised k-NN classifier for
  * every hypothetical split of the unsegmented window suffix, by a
  * branch-and-bound search over misclassification counts kept current
  * across k-NN steps.
  *
  * Split positions are absolute: split `s` labels the in-scope subsequences
  * before position `s` zero and the rest one; a neighbour before the scope is
  * always zero. A subsequence predicts 0 once `h = ceil(k/2)` of its `k`
  * neighbours vote 0, so the one at position `P` predicts 0 from its turn
  * point `t` on: its h-th smallest neighbour position
  * ([[StreamingKnn.turnPositions]]) plus one. It is
  *  - true 1, predicted 0 (n10) exactly for `s ∈ [t, P]`, and
  *  - true 0, predicted 1 (n01) exactly for `s ∈ [P+1, t−1]`.
  * These intervals do not depend on the scope start, only which rows count
  * does. A = n10 and B = n01 per split position are range-add counts in a
  * segment tree whose nodes hold min A, min B and min(A+B). At a split with
  * `zc` zero-labelled subsequences of a scope of `m`, `n00 = zc − B` and
  * `n11 = m − zc − A`.
  *
  * Keeping the counts current costs a few `O(log d)` range-adds per k-NN
  * step:
  *  - a turn change `t → t'` moves only the splits `[min(t,t'), max(t,t')−1]`:
  *    A for those at or before `P`, B the other way for those after it;
  *  - a new row adds its n10 interval (its neighbours all lie before it);
  *  - a row that slides out of a scope clamped to the window start removes
  *    its n01 interval (its n10 interval ends before every in-scope split).
  * Any other change of the scope, a k-NN other than the last one seen, or a
  * skipped update rebuilds the counts in `O(d)` from the turn positions.
  *
  * The leaves cover `n >= 2·(maxRows+1)` split positions from `base`, the
  * window start at the last rebuild; once the window's newest row would pass
  * the last leaf, the counts are rebuilt from the current window start, so no
  * range ever wraps. The tree uses range-adds without push-down: a node's
  * value is the min over its children plus its own pending add, so the true
  * min of a subtree is its root's value plus the adds of its ancestors.
  *
  * The best split is the leftmost highest-scoring admissible one. The descent
  * walks the tree left child first and prunes every range whose score bound
  * is below its threshold: first `minScore`, then just above the best leaf
  * found so far. So it visits at most `O(d)` nodes, and on most steps of a
  * stream far fewer, as no split reaches `minScore`.
  *
  * Not state: [[ClaSS]] holds one transiently, and the first call after
  * deserialisation rebuilds the counts. All buffers are preallocated to
  * `maxRows` and reused across calls, which run once per stream observation.
  *
  * @param maxRows most k-NN rows the window holds (`d - w + 1`)
  */
final class ClaspScorer(maxRows: Int) {
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

  // Labels at the best split of the last call, written when first read.
  private val yPredArr = new Array[Int](maxRows)
  // Best split of the last call whose labels yPred has not yet written; -1
  // once written or when the call found no split.
  private var labelZc = -1

  /** Predicted label of local subsequence `j` at the best split of the last
    * `score` call (the significance test's input). Valid until the next call,
    * and only if that call found a split.
    */
  def yPred: Array[Int] = {
    if (labelZc >= 0) {
      // 0 exactly when the prediction turned 0 by the best split.
      val m = end - from
      var j = 0
      while (j < m) { yPredArr(j) = if (turnAt(from + j) <= from + labelZc) 0 else 1; j += 1 }
      labelZc = -1
    }
    yPredArr
  }

  /** Find the best admissible split of the scope `[scopeStart, knn.numRows)`
    * that scores at least `minScore`, and leave [[yPred]] at it.
    *
    * @param knn        the streaming k-NN (must be `ready`)
    * @param scopeStart first row of the unsegmented scope
    * @param f          classification score function
    * @param exclRadius minimum segment size in window-widths: only splits
    *                   leaving at least `exclRadius * knn.w` points on each side
    *                   compete for the maximum (ClaSP's CP exclusion radius;
    *                   claspy default 5). `1` admits every computable split.
    * @param minScore   the score below which the caller discards the best
    *                   split; `-∞` finds the best split whatever its score
    * @return the first split with the highest score, or `bestZeroCount = -1`
    *         when the scope is too small for any admissible split or no
    *         admissible split reaches `minScore`
    */
  def score(knn: StreamingKnn, scopeStart: Int, f: String,
            exclRadius: Int, minScore: Double): SplitScore = {
    val w = knn.w
    val m = knn.numRows - scopeStart
    val zMax = m - w - 2 // splits leave w subsequences untouched on each side
    // Admissible range under the minimum-segment-size rule: a split with zc
    // zero subsequences has zc + w - 1 points on the left and m - zc + w - 1
    // on the right; both must reach exclRadius * w.
    val margin = math.max(0, (exclRadius - 1) * w + 1)
    val zcLo = math.max(1, margin)
    val zcHi = math.min(zMax, m - margin)
    labelZc = -1
    if (zMax < 1 || zcLo > zcHi) return SplitScore(-1, 0.0, math.max(0, m))
    sync(knn, scopeStart)
    best(zcLo, zcHi, f == ScoreFunction.MacroF1, minScore)
    labelZc = bestZc
    SplitScore(bestZc, bestScore, m)
  }

  /** Bring the counts in step with `knn`'s rows and the scope
    * `[scopeStart, knn.numRows)`.
    */
  private[core] def sync(knn: StreamingKnn, scopeStart: Int): Unit = {
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
  private[core] def a(zc: Int): Int = pointValue(minA, addA, from + zc)

  /** B = n01 at the split with `zc` zero-labelled subsequences. */
  private[core] def b(zc: Int): Int = pointValue(minB, addB, from + zc)

  private def pointValue(v: Array[Int], pending: Array[Int], leaf: Int): Int = {
    var p = (leaf + n) >> 1
    var s = v(leaf + n)
    while (p >= 1) { s += pending(p); p >>= 1 }
    s
  }

  // The range, score function and threshold of the running descent, and the
  // best split it found.
  private var qLo = 0
  private var qHi = 0
  private var useF1 = true
  private var threshold = 0.0
  private var visit: (Int, Int, Boolean, Double) => Unit = _
  private var bestZc = -1
  private var bestScore = 0.0

  /** The first split with `zc ∈ [zcLo, zcHi]` zero-labelled subsequences
    * whose score is the highest and at least `minScore`, or `-1`.
    *
    * Over a range `[lo, hi]` of splits, `n00 <= hi − min B`,
    * `n11 <= m − lo − min A` and `n10 + n01 >= min(A+B)`. A class's F1,
    * `2h/(2h+e)`, rises with its hits `h` and falls with the errors `e`, so
    * [[ClaspScorer.macroF1]] of those three bounds every split's macro F1 in
    * the range from above (accuracy: `1 − min(A+B)/m`). Correctly rounded
    * division, addition and halving are monotone, so the bound holds for the
    * floating-point scores too; at a leaf it is the split's score. The
    * descent visits the leaves left to right and keeps a leaf only if it
    * scores strictly above every leaf kept before it: the threshold rises to
    * `nextUp` of each kept score. So it keeps the first maximum, and every
    * range it prunes holds only splits that would not be kept.
    *
    * @param visit called with each range the descent checks (local `lo`,
    *              `hi`, whether it is one leaf, its bound); `null` outside
    *              the tests
    */
  private[core] def best(zcLo: Int, zcHi: Int, macroF1: Boolean, minScore: Double,
                         visit: (Int, Int, Boolean, Double) => Unit = null): Int = {
    qLo = from + zcLo
    qHi = from + zcHi
    useF1 = macroF1
    threshold = minScore
    this.visit = visit
    bestZc = -1
    bestScore = 0.0
    descend(1, 0, n - 1, 0, 0)
    bestZc
  }

  private def descend(p: Int, nl: Int, nr: Int, pendA: Int, pendB: Int): Unit = {
    val l = math.max(nl, qLo)
    val r = math.min(nr, qHi)
    if (l > r) return
    val m = end - from
    val a = minA(p) + pendA
    val b = minB(p) + pendB
    val e = minAB(p) + pendA + pendB
    val bound =
      if (useF1) ClaspScorer.macroF1(r - from - b, m - (l - from) - a, e)
      else (m - e).toDouble / m
    if (visit != null) visit(l - from, r - from, p >= n, bound)
    if (bound < threshold) return
    if (p >= n) {
      bestZc = l - from
      bestScore = bound
      threshold = math.nextUp(bound)
    } else {
      val mid = (nl + nr) >>> 1
      val ca = pendA + addA(p)
      val cb = pendB + addB(p)
      descend(2 * p, nl, mid, ca, cb)
      descend(2 * p + 1, mid + 1, nr, ca, cb)
    }
  }
}

object ClaspScorer {
  /** Macro F1 of a split's confusion counts: the mean of the two classes'
    * F1 `2h/(2h+e)`, with `h` the class's hits (`n00`, `n11`) and `e` the
    * errors `n10 + n01`; a class with `2h + e = 0` scores 0.
    */
  private[core] def macroF1(n00: Int, n11: Int, errors: Int): Double =
    (f1(n00, errors) + f1(n11, errors)) / 2.0

  private def f1(hits: Int, errors: Int): Double = {
    val den = 2 * hits + errors
    if (den == 0) 0.0 else 2.0 * hits / den
  }
}
