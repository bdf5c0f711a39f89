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
  * every hypothetical split of the unsegmented window suffix in `O(k·d)`
  * total (amortized `O(1)` per split).
  *
  * The ground-truth labelling of two consecutive splits differs in exactly
  * one subsequence; the scorer flips that one label, pushes the delta through
  * the reverse-NN lists into the per-subsequence label counts, predictions
  * and the confusion matrix, and reads each split's score off the confusion
  * matrix in constant time. A prediction only ever moves 1 -> 0, so the
  * sweep records the split at which each one turns 0; the labels at the best
  * split (for the significance test) follow from those in one pass.
  *
  * All buffers are preallocated to `maxRows` and reused across calls — the
  * scorer runs once per stream observation, so per-call allocation would
  * dominate the segmenter's runtime.
  */
final class ClaspScorer(maxRows: Int, k: Int) extends Serializable {

  // Per local subsequence: during `score`, the split at which its predicted
  // label turns 0 (0 = from the start, `Int.MaxValue` = not yet); afterwards,
  // its label at the best split.
  private val yPredArr = new Array[Int](maxRows)
  // Zero-labelled neighbours per subsequence (local scope indexing).
  private val count0 = new Array[Int](maxRows)
  // Reverse-NN lists in CSR layout: neighbours-of lists for each local index.
  private val revOff = new Array[Int](maxRows + 1)
  private val revDst = new Array[Int](maxRows * k)
  private val revFill = new Array[Int](maxRows)
  // Optional profile capture (tests, visualization, FLOSS-style inspection).
  private val profileArr = new Array[Double](maxRows)
  private var profileLen = 0

  /** Predicted label of local subsequence `j` at the best split of the last
    * `score` call (the significance test's input). Valid until the next call,
    * and only if that call found a split.
    */
  def yPred: Array[Int] = yPredArr

  /** ClaSP values of the last call: entry `zc` (1-based) is the score of the
    * split with `zc` zero-labelled subsequences; entry 0 is unused.
    */
  def profile(zc: Int): Double = profileArr(zc)

  /** Number of valid profile entries (max zero count) of the last call. */
  def numSplits: Int = profileLen

  /** Score every hypothetical split of the scope `[scopeStart, knn.numRows)`
    * and leave [[yPred]] at the best one.
    *
    * @param knn        the streaming k-NN (must be `ready`)
    * @param scopeStart first row of the unsegmented scope
    * @param w          subsequence width
    * @param f          classification score function
    * @param exclRadius minimum segment size in window-widths: only splits
    *                   leaving at least `exclRadius * w` points on each side
    *                   compete for the maximum (ClaSP's CP exclusion radius;
    *                   claspy default 5). `1` admits every computable split.
    * @return the best split (or `bestZeroCount = -1` when the scope is too
    *         small for any admissible split)
    */
  def score(knn: StreamingKnn, scopeStart: Int, w: Int, f: String,
            exclRadius: Int = 1): SplitScore = {
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
    if (zMax < 1 || zcLo > zcHi) return SplitScore(-1, 0.0, math.max(0, m))

    // --- initial configuration: every in-scope label is 1 ------------------
    val scopeBasePos = knn.windowStart + scopeStart
    var j = 0
    while (j < m) { count0(j) = 0; revFill(j) = 0; j += 1 }
    java.util.Arrays.fill(revOff, 0, m + 1, 0)

    // Count out-of-scope (class-0) neighbours; size reverse lists.
    j = 0
    while (j < m) {
      var t = 0
      while (t < k) {
        val local = knn.neighborPos(scopeStart + j, t) - scopeBasePos
        if (local < 0) count0(j) += 1 else revOff(local + 1) += 1
        t += 1
      }
      j += 1
    }
    j = 0
    while (j < m) { revOff(j + 1) += revOff(j); j += 1 }
    j = 0
    while (j < m) {
      var t = 0
      while (t < k) {
        val local = knn.neighborPos(scopeStart + j, t) - scopeBasePos
        if (local >= 0) {
          revDst(revOff(local) + revFill(local)) = j
          revFill(local) += 1
        }
        t += 1
      }
      j += 1
    }

    // Initial predictions and confusion matrix n[trueLabel][predLabel].
    val Never = Int.MaxValue
    var n11 = 0; var n10 = 0; var n01 = 0; var n00 = 0
    j = 0
    while (j < m) {
      // all true labels start as 1
      if (2 * count0(j) >= k) { yPredArr(j) = 0; n10 += 1 } else { yPredArr(j) = Never; n11 += 1 }
      j += 1
    }

    @inline def currentScore(): Double =
      if (useF1) {
        val f1c1 = { val den = 2 * n11 + n10 + n01; if (den == 0) 0.0 else 2.0 * n11 / den }
        val f1c0 = { val den = 2 * n00 + n01 + n10; if (den == 0) 0.0 else 2.0 * n00 / den }
        (f1c0 + f1c1) / 2.0
      } else (n11 + n00).toDouble / m

    // --- sweep: flip one subsequence per split ------------------------------
    // At split zc, subsequence j's true label is 1 iff j >= zc.
    var bestZc = -1
    var bestScore = Double.NegativeInfinity
    var zc = 1
    while (zc <= zMax) {
      val flip = zc - 1
      // The flipped subsequence's own (true, pred) cell moves rows 1 -> 0.
      if (yPredArr(flip) == Never) { n11 -= 1; n01 += 1 } else { n10 -= 1; n00 += 1 }
      // Every subsequence that has `flip` among its k-NN sees one more zero.
      var r = revOff(flip)
      val rEnd = revOff(flip + 1)
      while (r < rEnd) {
        val idx = revDst(r)
        count0(idx) += 1
        if (yPredArr(idx) == Never && 2 * count0(idx) >= k) { // pred can only move 1 -> 0
          if (idx >= zc) { n11 -= 1; n10 += 1 } else { n01 -= 1; n00 += 1 }
          yPredArr(idx) = zc
        }
        r += 1
      }
      val s = currentScore()
      profileArr(zc) = s
      if (zc >= zcLo && zc <= zcHi && s > bestScore) { bestScore = s; bestZc = zc }
      zc += 1
    }
    profileLen = zMax
    if (bestZc < 0) return SplitScore(-1, 0.0, m)
    // Labels at the best split: 0 exactly when the prediction turned 0 by then.
    j = 0
    while (j < m) { yPredArr(j) = if (yPredArr(j) <= bestZc) 0 else 1; j += 1 }
    SplitScore(bestZc, bestScore, m)
  }
}
