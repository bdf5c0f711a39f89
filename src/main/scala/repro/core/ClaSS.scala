package repro.core

/** Configuration of the ClaSS segmenter: the paper's parameters with its
  * defaults (Subsection 4.2) and the resampling seed. The stabilisers this
  * repo adds on top of Algorithm 1 are fixed members, not options (see
  * EXPERIMENTS.md, "Documented algorithmic deviations").
  *
  * @param d             sliding window size (paper default 10k; this repo's
  *                      scaled corpus uses 2k, see DESIGN.md §6)
  * @param k             neighbours in the streaming k-NN (default 3)
  * @param scoreFunction split score (default macro F1)
  * @param significance  Wilcoxon significance level (default 1e-50)
  * @param sampleSize    resample size for the significance test (default 1k;
  *                      `<= 0` uses the variable full sample)
  * @param seed          RNG seed for the resampling draw
  */
final case class ClaSSConfig(
    d: Int = 2000,
    k: Int = 3,
    scoreFunction: String = ScoreFunction.MacroF1,
    significance: Double = 1e-50,
    sampleSize: Int = 1000,
    seed: Long = 7L,
) {
  require(d >= 200, s"sliding window too small: $d")
  ScoreFunction.validate(scoreFunction)

  /** Minimum cross-validation score a split must reach before the
    * significance test may report it. Inherited from batch ClaSP's
    * score-threshold CP validation (claspy default 0.75): the paper's own
    * "negative offsets belong to class zero" rule gives old subsequences a
    * persistent zero bias, so on homogeneous streams the *label-frequency*
    * rank-sum test alone can reach arbitrary significance while the
    * classifier is barely better than chance; gating on classifier quality
    * restores the intended conservatism.
    */
  final val minScore = 0.75

  /** Minimum segment size in window-widths for admissible splits (ClaSP's CP
    * exclusion radius, claspy default 5): keeps the stale left-edge label
    * block from masquerading as a segment.
    */
  final val exclRadius = 5

  /** Consecutive observations for which the detection condition (score and
    * significance) must hold before a CP is reported. A genuine change's
    * evidence ramps up monotonically as its segment grows, while marginal
    * false positives pass only transiently: a short debounce separates the
    * two at negligible latency (~confirmSteps points).
    */
  final val confirmSteps = 10

  /** Observations SuSS learns the width from. The paper states "the first d
    * observations", but its own benchmark (TSSB, median length 3.5k,
    * d = 10k) contains mostly series shorter than `d` that ClaSS still
    * segments, so width learning must complete before the window fills; it
    * is capped at 1000 points.
    */
  def effectiveWarmup: Int = math.min(d, 1000)
  /** Widest admissible subsequence: the k-NN warm-up (w + 2·(3/2·w) + k points)
    * must fit the window with room to spare; d/10 also matches the paper's
    * guidance that the window should span 10–100 pattern instances.
    */
  def maxWidth: Int = d / 10
}

/** ClaSS — Classification Score Stream (Algorithm 1).
  *
  * Streaming time series segmentation by self-supervision: a streaming k-NN
  * over sliding-window subsequences ([[StreamingKnn]]), a cross-validation
  * of every hypothetical split that finds the best one ([[ClaspScorer]]), and a
  * two-sided Wilcoxon rank-sum test with class-stratified resampling that
  * turns the best split into a reported change point. Only the suffix
  * after the last reported change point is scored.
  *
  * Phases: (1) buffer the first [[ClaSSConfig.effectiveWarmup]] points and
  * learn the subsequence width with SuSS; (2) replay the buffer through the
  * k-NN so segmentation covers the stream from its first observation
  * (Subsection 3.4); (3) steady state — one k-NN update plus one search for
  * the best split scoring at least [[ClaSSConfig.minScore]] per point.
  *
  * Missing values: a non-finite reading (NaN, ±Inf) is replaced by the last
  * finite one (0.0 before any), so positions stay aligned with the stream;
  * [[missingValues]] counts the replacements.
  *
  * @param start stream position of the first reading (0 outside the tests)
  */
final class ClaSS private[core] (val cfg: ClaSSConfig, start: Long) extends StreamSegmenter {
  def this(cfg: ClaSSConfig) = this(cfg, 0L)

  private val rng = new Rng(cfg.seed)
  private var warmup: Array[Double] = new Array[Double](cfg.effectiveWarmup)
  private var warmupLen = 0
  private var knn: StreamingKnn = _
  // The scorer's split counts: not state, so not serialised; rebuilt on the
  // first scored step after deserialisation.
  @transient private var scorer: ClaspScorer = _
  private var w: Int = -1
  private var lastCp: Long = 0L // absolute position of the last reported CP
  private var passStreak: Int = 0 // consecutive steps the detection held
  private var lastFinite: Double = 0.0
  private var missing: Long = 0L
  private var seen: Long = start

  /** The subsequence width SuSS learned; -1 before warm-up ends. */
  def width: Int = w

  /** Total observations ingested so far. */
  def observed: Long = seen

  /** Non-finite readings replaced so far. */
  def missingValues: Long = missing

  override def update(reading: Double): Option[Long] = {
    val x = if (java.lang.Double.isFinite(reading)) { lastFinite = reading; reading }
            else { missing += 1; lastFinite }
    seen += 1
    if (knn == null) {
      warmup(warmupLen) = x
      warmupLen += 1
      if (warmupLen < cfg.effectiveWarmup) return None
      // Learn the width, then replay the warm-up from the first observation.
      w = Suss.learnWidth(warmup, maxWidth = cfg.maxWidth)
      knn = new StreamingKnn(cfg.d, w, cfg.k, seen - warmupLen)
      var cp: Option[Long] = None
      var i = 0
      while (i < warmupLen) {
        val r = step(warmup(i))
        if (r.isDefined) cp = r // replay may already surface earlier CPs
        i += 1
      }
      warmup = null // release the buffer; knn holds the window from here on
      cp
    } else step(x)
  }

  private def step(x: Double): Option[Long] = {
    knn.update(x)
    if (!knn.ready) return None
    if (scorer == null) scorer = new ClaspScorer(cfg.d - w + 1)
    // Clamp the scope to the window: a long-completed segment may have
    // partially slid out already (Definition 4 allows that).
    val scopeStart = math.max(0L, lastCp - knn.windowStart).toInt
    val split = scorer.score(knn, scopeStart, cfg.scoreFunction, cfg.exclRadius, cfg.minScore)
    if (split.bestZeroCount < 0) { passStreak = 0; return None }
    val p = Wilcoxon.significanceP(
      scorer.yPred, split.numSubseq, split.bestZeroCount, cfg.sampleSize, rng)
    if (p < cfg.significance) {
      passStreak += 1
      if (passStreak >= cfg.confirmSteps) {
        // zc zero-labelled subsequences cover the points up to zc + w - 2;
        // the new segment starts at local point zc + w - 1.
        val cp = knn.windowStart + scopeStart + split.bestZeroCount + w - 1
        lastCp = cp
        passStreak = 0
        Some(cp)
      } else None
    } else { passStreak = 0; None }
  }
}
