package repro.eval

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines._
import repro.core._
import repro.data.{GeneratedSeries, SeriesSpec, SyntheticCorpus}

/** One (series, method) evaluation outcome. */
final case class EvalRow(
    dataset: String,
    tier: String,
    seriesId: Int,
    method: String,
    covering: Double,
    nPredCps: Int,
    nTrueCps: Int,
    points: Int,
    runtimeMs: Double,
)

/** Spark-parallel evaluation sweep: fan the (series × method) grid out over
  * the cluster with the Dataset API; each task regenerates its series from
  * the spec seed, streams it through the segmenter, and scores the predicted
  * change points with Covering.
  */
object Sweep {

  /** All nine methods, paper order. */
  val AllMethods: Seq[String] =
    Seq("ClaSS", "FLOSS", "Window", "ChangeFinder", "NEWMA", "BOCD", "DDM", "ADWIN", "HDDM")

  /** Instantiate a fresh segmenter.
    *
    * @param name      method name from [[AllMethods]]
    * @param d         sliding window size for the windowed methods
    * @param widthHint annotated subsequence width (used by FLOSS and Window,
    *                  as in the paper's competitor setup)
    */
  def createMethod(name: String, d: Int, widthHint: Int, seed: Long = 7L): StreamSegmenter =
    name match {
      case "ClaSS"        => new ClaSS(ClaSSConfig(d = d, seed = seed))
      case "FLOSS"        => new Floss(d = d, widthHint = widthHint)
      case "Window"       => new WindowSegmenter(widthHint = widthHint)
      case "ChangeFinder" => new ChangeFinder()
      case "NEWMA"        => new Newma(seed = seed)
      case "BOCD"         => new Bocd()
      case "DDM"          => new Ddm()
      case "ADWIN"        => new Adwin()
      case "HDDM"         => new Hddm()
      case other          => throw new IllegalArgumentException(s"unknown method: $other")
    }

  /** Evaluate one method on one materialized series. */
  def evaluateOne(series: GeneratedSeries, method: String, d: Int): EvalRow = {
    val seg = createMethod(method, d, series.spec.widthHint)
    val t0 = System.nanoTime()
    val predicted = StreamSegmenter.segmentSeries(seg, series.values)
    val elapsedMs = (System.nanoTime() - t0) / 1e6
    val cov = Covering.covering(series.changePoints, predicted, series.values.length.toLong)
    EvalRow(series.spec.dataset, series.spec.tier, series.spec.seriesId, method,
      cov, predicted.size, series.changePoints.size, series.values.length, elapsedMs)
  }

  /** Whether `method` runs on `spec`'s tier: BOCD only on the benchmark
    * tier, as in the paper (it did not finish on the archives).
    */
  def runsOn(method: String, spec: SeriesSpec): Boolean =
    !(method == "BOCD" && spec.tier == SyntheticCorpus.Archive)

  /** Run the sweep for the given specs; method set per tier as in the paper
    * ([[runsOn]]).
    */
  def run(spark: SparkSession, specs: Seq[SeriesSpec], d: Int,
          methods: Seq[String] = AllMethods): Dataset[EvalRow] = {
    import spark.implicits._
    val grid: Seq[(SeriesSpec, String)] = for {
      spec <- specs
      m <- methods
      if runsOn(m, spec)
    } yield (spec, m)
    // One task per grid cell; series regeneration is cheap and deterministic.
    spark
      .createDataset(grid)
      .repartition(math.max(spark.sparkContext.defaultParallelism * 2, grid.size / 8))
      .map { case (spec, method) => evaluateOne(SyntheticCorpus.generate(spec), method, d) }
  }
}
