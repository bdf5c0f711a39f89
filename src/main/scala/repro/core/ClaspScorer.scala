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
  *                      split; `-1` when no split was scorable
  * @param bestScore     cross-validation score of the best split
  * @param numSubseq     number of subsequences in the scored scope
  */
final case class SplitScore(bestZeroCount: Int, bestScore: Double, numSubseq: Int)

/** Algorithm 3: cross-validating the self-supervised k-NN classifier for
  * every hypothetical split of the unsegmented window suffix in `O(d)` per
  * call (`O(1)` per split), unless a bound shows first that no split can
  * reach the caller's minimum score.
  *
  * At split `zc` the first `zc` subsequences of the scope are labelled 0 and
  * the rest 1; a neighbour before the scope is always 0. So a neighbour at
  * local position `L` votes 0 exactly when `L < zc`, and subsequence `j`,
  * which predicts 0 once `h = ceil(k/2)` of its `k` neighbours vote 0,
  * predicts 0 from its turn point `max(0, L_h + 1)` on, where `L_h` is the
  * h-th smallest local position among its neighbours. The k-NN keeps each
  * row's h-th smallest neighbour position ([[StreamingKnn.turnPositions]]),
  * so one pass over the rows reads every turn point and counts it at its
  * split, with no per-row sort. From one split to the next, the one
  * subsequence whose true label flips moves its confusion cell, and the
  * subsequences that turn at the new split move their prediction 1 -> 0.
  * Only admissible splits are scored, each in constant time from the
  * confusion matrix; the labels at the best split (for the significance
  * test) follow from the turn points when [[yPred]] is read.
  *
  * With a finite `minScore`, a [[SplitCoverage]] first keeps the confusion
  * counts of every split current across k-NN steps, at a few `O(log d)`
  * range-adds per step, and its branch-and-bound descent tries to prove that
  * no admissible split reaches `minScore`. Only a step it cannot reject is
  * swept: the worst case stays `O(d)`, but most steps of a stream cost far
  * less. A rejected step's outcome is the one the sweep would have led to,
  * because the bound is never below the sweep's own floating-point score.
  *
  * All buffers are preallocated to `maxRows` and reused across calls — the
  * scorer runs once per stream observation, so per-call allocation would
  * dominate the segmenter's runtime.
  */
final class ClaspScorer(maxRows: Int) extends Serializable {

  // Per local subsequence: its turn point (the first split at which its
  // predicted label is 0), until yPred turns it into its label at the best
  // split.
  private val yPredArr = new Array[Int](maxRows)
  // Best split of the last call whose labels yPred has not yet written; -1
  // once written or when the call found no split.
  private var labelZc = -1
  private var labelLen = 0
  // Per split: how many subsequences turn 0 there while their own true label
  // is still 1 (`j >= zc`), and how many turn while it is already 0.
  private val turnsRight = new Array[Int](maxRows + 1)
  private val turnsLeft = new Array[Int](maxRows + 1)
  // ClaSP profile of the admissible splits; the tests compare it with the
  // naive recomputation.
  private val profileArr = new Array[Double](maxRows)
  private var profileLen = 0
  // Split counts for the rejection test; built on the first call that has a
  // finite minScore.
  @transient private var coverage: SplitCoverage = _

  /** Predicted label of local subsequence `j` at the best split of the last
    * `score` call (the significance test's input). Valid until the next call,
    * and only if that call found a split.
    */
  def yPred: Array[Int] = {
    if (labelZc >= 0) {
      // 0 exactly when the prediction turned 0 by the best split.
      var j = 0
      while (j < labelLen) { yPredArr(j) = if (yPredArr(j) <= labelZc) 0 else 1; j += 1 }
      labelZc = -1
    }
    yPredArr
  }

  /** ClaSP values of the last call: entry `zc` (1-based) is the score of the
    * split with `zc` zero-labelled subsequences. Written only for the
    * admissible splits of that call (all of `1..numSplits` at
    * `exclRadius = 1`); entry 0 is unused.
    */
  def profile(zc: Int): Double = profileArr(zc)

  /** Number of computable splits (max zero count) of the last call. */
  def numSplits: Int = profileLen

  /** Score every admissible split of the scope `[scopeStart, knn.numRows)`
    * and leave [[yPred]] at the best one.
    *
    * @param knn        the streaming k-NN (must be `ready`)
    * @param scopeStart first row of the unsegmented scope
    * @param f          classification score function
    * @param exclRadius minimum segment size in window-widths: only splits
    *                   leaving at least `exclRadius * knn.w` points on each side
    *                   compete for the maximum (ClaSP's CP exclusion radius;
    *                   claspy default 5). `1` admits every computable split.
    * @param minScore   the score below which the caller discards the best
    *                   split; when no admissible split can reach it, the
    *                   sweep is skipped. `-∞` always sweeps.
    * @return the best split, or `bestZeroCount = -1` when the scope is too
    *         small for any admissible split or no admissible split reaches
    *         `minScore` (then [[profile]] and [[yPred]] are not written)
    */
  def score(knn: StreamingKnn, scopeStart: Int, f: String,
            exclRadius: Int = 1, minScore: Double = Double.NegativeInfinity): SplitScore = {
    val w = knn.w
    val useF1 = f == ScoreFunction.MacroF1
    val m = knn.numRows - scopeStart
    val zMax = m - w - 2 // splits leave w subsequences untouched on each side
    // Admissible range under the minimum-segment-size rule: a split with zc
    // zero subsequences has zc + w - 1 points on the left and m - zc + w - 1
    // on the right; both must reach exclRadius * w.
    val margin = math.max(0, (exclRadius - 1) * w + 1)
    val zcLo = math.max(1, margin)
    val zcHi = math.min(zMax, m - margin)
    profileLen = 0
    labelZc = -1
    if (zMax < 1 || zcLo > zcHi) return SplitScore(-1, 0.0, math.max(0, m))
    if (minScore > Double.NegativeInfinity) {
      if (coverage == null) coverage = new SplitCoverage(maxRows)
      coverage.sync(knn, scopeStart)
      if (coverage.rejects(zcLo, zcHi, useF1, minScore)) return SplitScore(-1, 0.0, m)
    }

    // --- turn points and the confusion matrix n[trueLabel][predLabel] at
    // split 0, where every in-scope label is 1 -------------------------------
    val scopeBasePos = (knn.windowStart + scopeStart).toInt // positions wrap alike
    val turns = knn.turnPositions
    java.util.Arrays.fill(turnsRight, 0, zcHi + 1, 0)
    java.util.Arrays.fill(turnsLeft, 0, zcHi + 1, 0)
    var n11 = 0; var n10 = 0; var n01 = 0; var n00 = 0
    var j = 0
    while (j < m) {
      val turn = math.max(0, turns(scopeStart + j) - scopeBasePos + 1)
      yPredArr(j) = turn
      if (turn == 0) n10 += 1 else n11 += 1
      if (turn <= zcHi) { if (j >= turn) turnsRight(turn) += 1 else turnsLeft(turn) += 1 }
      j += 1
    }

    // --- sweep: flip one subsequence per split, score the admissible ones ---
    // At split zc, subsequence j's true label is 1 iff j >= zc.
    var bestZc = -1
    var bestScore = Double.NegativeInfinity
    var zc = 1
    while (zc <= zcHi) {
      // The flipped subsequence's (true, pred) cell moves rows 1 -> 0; its
      // prediction is still the one of split zc - 1.
      if (yPredArr(zc - 1) >= zc) { n11 -= 1; n01 += 1 } else { n10 -= 1; n00 += 1 }
      // Predictions that turn 1 -> 0 at this split.
      n11 -= turnsRight(zc); n10 += turnsRight(zc)
      n01 -= turnsLeft(zc); n00 += turnsLeft(zc)
      if (zc >= zcLo) {
        val s = if (useF1) ClaspScorer.macroF1(n00, n11, n10 + n01) else (n11 + n00).toDouble / m
        profileArr(zc) = s
        if (s > bestScore) { bestScore = s; bestZc = zc }
      }
      zc += 1
    }
    profileLen = zMax
    labelZc = bestZc
    labelLen = m
    SplitScore(bestZc, bestScore, m)
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
