package repro.stream

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{OutputMode, StreamingQueryProgress}
import repro.core.ClaSSConfig

/** The stream operator between a `MemoryStream` source and a memory sink,
  * fed one micro-batch at a time: the query setup of the operator tests and
  * of `ThroughputBench`.
  */
object MemorySinkQuery {

  /** What one query emitted.
    *
    * @param cps          every change point, in no particular order
    * @param feedMs       wall time from the first micro-batch added to the
    *                     last one processed
    * @param lastProgress the progress report of the last micro-batch
    */
  final case class Run(cps: Vector[DetectedChangePoint], feedMs: Double,
                       lastProgress: StreamingQueryProgress)

  /** Start the operator, add each of `batches` as one micro-batch and wait
    * until it is processed, then stop the query and drop its table.
    */
  def run(spark: SparkSession, cfg: ClaSSConfig, batches: IterableOnce[Seq[SensorReading]]): Run = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val name = "operator_cps"
    val input = MemoryStream[SensorReading]
    val query = StreamingSegmentation.changePoints(input.toDS(), cfg)
      .writeStream.format("memory").queryName(name)
      .outputMode(OutputMode.Append()).start()
    try {
      val t0 = System.nanoTime()
      batches.iterator.foreach { b => input.addData(b); query.processAllAvailable() }
      val feedMs = (System.nanoTime() - t0) / 1e6
      Run(spark.table(name).as[DetectedChangePoint].collect().toVector, feedMs, query.lastProgress)
    } finally {
      query.stop()
      spark.sql(s"DROP TABLE IF EXISTS $name")
    }
  }
}
