package repro.stream

import org.apache.spark.sql.SparkSession

/** The one SparkSession bootstrap of the program: the jobs and the test
  * suites both build their session here, so they run under the same settings.
  *
  * The master comes from `SPARK_MASTER` (default `local[*]`). Shuffle
  * partitions follow the session's own `defaultParallelism` (the cores of a
  * local master): every shuffle partition of the stream operator owns a state
  * store that commits on every micro-batch, even when it holds no key.
  */
object LocalSession {
  def create(appName: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s.conf.set("spark.sql.shuffle.partitions", s.sparkContext.defaultParallelism.toLong)
    s
  }
}
