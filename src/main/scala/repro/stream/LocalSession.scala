package repro.stream

import org.apache.spark.sql.SparkSession

/** The one SparkSession bootstrap of the program: the test suites, the
  * bench suites and perfbench build their session here, so they run under
  * the same settings.
  *
  * The master comes from `SPARK_MASTER` (default `local[*]`). Shuffle
  * partitions follow the session's own `defaultParallelism` (the cores of a
  * local master): every shuffle partition of the stream operator owns a state
  * store that commits on every micro-batch, even when it holds no key.
  *
  * Checkpoint files (the state stores' delta files and the offset and commit
  * logs) are written through Spark's `FileSystemBasedCheckpointFileManager`,
  * i.e. a temporary file and `FileSystem.rename`. Spark's default goes
  * through Hadoop's `FileContext` instead, whose rename on the local file
  * system looks up link status by starting a `readlink` process per path,
  * dozens per micro-batch. On a local file system `FileSystem.rename` is
  * `File.renameTo`, one atomic rename(2), which is the condition under which
  * Spark itself accepts this manager. Both checksums stay: Spark's
  * `N.delta.crc` and Hadoop's `.N.delta.crc`.
  */
object LocalSession {
  def create(appName: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.sql.streaming.checkpointFileManagerClass",
        "org.apache.spark.sql.execution.streaming.checkpointing.FileSystemBasedCheckpointFileManager")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s.conf.set("spark.sql.shuffle.partitions", s.sparkContext.defaultParallelism.toLong)
    s
  }
}
