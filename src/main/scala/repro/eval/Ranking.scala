package repro.eval

import org.apache.spark.sql.DataFrame

/** Spark SQL aggregations over the per-(series, method) Covering results —
  * the queries behind Table 3 and the rank/win numbers quoted in the paper's
  * text. The SQL is ANSI-portable on purpose: the tests run the *same query
  * strings* on DuckDB (the test-side `repro.Oracle`) to validate the Spark
  * results.
  */
object Ranking {

  /** Table 3: mean/median/std Covering per method and tier. */
  val SummarySql: String =
    """SELECT method,
      |       tier,
      |       CAST(AVG(CAST(covering AS DOUBLE)) AS DOUBLE)    AS mean_cov,
      |       CAST(MEDIAN(CAST(covering AS DOUBLE)) AS DOUBLE) AS median_cov,
      |       CAST(STDDEV(CAST(covering AS DOUBLE)) AS DOUBLE) AS std_cov
      |FROM results
      |GROUP BY method, tier
      |ORDER BY method, tier""".stripMargin

  /** Mean Covering ranks per tier (average rank under ties, as in critical
    * difference diagrams): per series, a method's rank is the count of
    * strictly better methods plus half the ties plus one.
    */
  val MeanRankSql: String =
    """WITH ranked AS (
      |  SELECT tier, dataset, seriesId, method,
      |         RANK() OVER (PARTITION BY tier, dataset, seriesId
      |                      ORDER BY CAST(covering AS DOUBLE) DESC) AS min_rank,
      |         COUNT(*) OVER (PARTITION BY tier, dataset, seriesId,
      |                        CAST(covering AS DOUBLE)) AS ties
      |  FROM results
      |)
      |SELECT tier, method,
      |       CAST(AVG(min_rank + (ties - 1) / 2.0) AS DOUBLE) AS mean_rank
      |FROM ranked
      |GROUP BY tier, method
      |ORDER BY tier, mean_rank""".stripMargin

  /** Wins/ties per method and tier: a method "wins or ties" a series when no
    * other method scores strictly higher Covering on it.
    */
  val WinsSql: String =
    """WITH best AS (
      |  SELECT tier, dataset, seriesId,
      |         MAX(CAST(covering AS DOUBLE)) AS best_cov
      |  FROM results
      |  GROUP BY tier, dataset, seriesId
      |)
      |SELECT r.tier, r.method, CAST(COUNT(*) AS BIGINT) AS wins
      |FROM results r
      |JOIN best b
      |  ON r.tier = b.tier AND r.dataset = b.dataset AND r.seriesId = b.seriesId
      |WHERE CAST(r.covering AS DOUBLE) >= b.best_cov
      |GROUP BY r.tier, r.method
      |ORDER BY r.tier, wins DESC""".stripMargin

  /** Pairwise comparison of ClaSS vs each competitor: fraction of series
    * where ClaSS's Covering is at least as high.
    */
  val PairwiseSql: String =
    """SELECT o.tier, o.method,
      |       CAST(AVG(CASE WHEN CAST(c.covering AS DOUBLE) >= CAST(o.covering AS DOUBLE)
      |                     THEN CAST(1 AS DOUBLE) ELSE CAST(0 AS DOUBLE) END) AS DOUBLE)
      |         AS class_wins_frac
      |FROM results c
      |JOIN results o
      |  ON c.tier = o.tier AND c.dataset = o.dataset AND c.seriesId = o.seriesId
      |WHERE c.method = 'ClaSS' AND o.method <> 'ClaSS'
      |GROUP BY o.tier, o.method
      |ORDER BY o.tier, class_wins_frac DESC""".stripMargin

  private def over(results: DataFrame, sql: String): DataFrame = {
    results.createOrReplaceTempView("results")
    results.sparkSession.sql(sql)
  }

  def summary(results: DataFrame): DataFrame = over(results, SummarySql)
  def meanRanks(results: DataFrame): DataFrame = over(results, MeanRankSql)
  def wins(results: DataFrame): DataFrame = over(results, WinsSql)
  def pairwise(results: DataFrame): DataFrame = over(results, PairwiseSql)
}
