package repro.eval

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.SyntheticCorpus

class SweepRankingSpec extends SparkSpec {

  /** Tiny sweep: 4 fast methods on 6 small benchmark series. */
  private lazy val results: DataFrame = {
    val specs = SyntheticCorpus.specs().filter(_.dataset == "TSSB").take(6)
    Sweep.run(spark, specs, d = 600,
      methods = Seq("ClaSS", "DDM", "ADWIN", "HDDM")).toDF().cache()
  }

  test("sweep yields one row per (series, method)") {
    assert(results.count() == 6 * 4)
    val methods = results.select("method").distinct().collect().map(_.getString(0)).toSet
    assert(methods == Set("ClaSS", "DDM", "ADWIN", "HDDM"))
  }

  test("coverings are within [0, 1] and runtimes positive") {
    val rows = results.collect()
    rows.foreach { r =>
      val cov = r.getAs[Double]("covering")
      assert(cov >= 0.0 && cov <= 1.0)
      assert(r.getAs[Double]("runtimeMs") > 0.0)
      assert(r.getAs[Int]("points") > 0)
    }
  }

  test("BOCD is excluded from the archive tier") {
    val archiveSpecs = SyntheticCorpus.specs().filter(_.tier == SyntheticCorpus.Archive).take(2)
    val grid = Sweep.run(spark, archiveSpecs, d = 600, methods = Seq("BOCD", "DDM"))
    val methods = grid.toDF().select("method").distinct().collect().map(_.getString(0)).toSet
    assert(methods == Set("DDM"))
  }

  test("sweep is deterministic") {
    val specs = SyntheticCorpus.specs().filter(_.dataset == "TSSB").take(2)
    def covs() = Sweep.run(spark, specs, d = 600, methods = Seq("ClaSS", "DDM"))
      .collect().map(r => (r.dataset, r.seriesId, r.method, r.covering)).sortBy(_.toString)
    assert(covs().toSeq == covs().toSeq)
  }

  test("summary aggregation matches DuckDB") {
    repro.Oracle.assertEquivalent(
      Ranking.summary(results), Ranking.SummarySql, "results" -> results)
  }

  test("mean ranks match DuckDB") {
    repro.Oracle.assertEquivalent(
      Ranking.meanRanks(results), Ranking.MeanRankSql, "results" -> results)
  }

  test("win counts match DuckDB") {
    repro.Oracle.assertEquivalent(
      Ranking.wins(results), Ranking.WinsSql, "results" -> results)
  }

  test("pairwise ClaSS comparison matches DuckDB") {
    repro.Oracle.assertEquivalent(
      Ranking.pairwise(results), Ranking.PairwiseSql, "results" -> results)
  }

  test("oracle rejects column-name mismatches") {
    import spark.implicits._
    val df = Seq((1, "a")).toDF("x", "y")
    intercept[IllegalArgumentException] {
      repro.Oracle.assertEquivalent(df, "SELECT 1 AS z", "t" -> df)
    }
  }

  test("oracle detects wrong results") {
    import spark.implicits._
    val df = Seq(Tuple1(1L)).toDF("cnt")
    intercept[IllegalArgumentException] {
      repro.Oracle.assertEquivalent(df, "SELECT CAST(2 AS BIGINT) AS cnt", "t" -> df)
    }
  }

  test("mean ranks average to (numMethods + 1) / 2 per tier") {
    val ranks = Ranking.meanRanks(results).collect()
    val byTier = ranks.groupBy(_.getString(0))
    byTier.foreach { case (_, rows) =>
      val avg = rows.map(_.getAs[Double]("mean_rank")).sum / rows.length
      assert(math.abs(avg - (rows.length + 1) / 2.0) < 1e-9, s"avg=$avg")
    }
  }

  test("each series awards at least one win") {
    val wins = Ranking.wins(results).collect().map(_.getAs[Long]("wins")).sum
    assert(wins >= 6) // >= one winner per series (ties may add more)
  }
}
