package repro.stream

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.OutputMode
import repro.SparkSpec
import repro.core.{ClaSS, ClaSSConfig, Reference, StreamSegmenter}

/** The Structured Streaming stateful ClaSS operator (the Flink-operator
  * analog): per-key state across micro-batches must reproduce the offline
  * segmentation exactly.
  */
class StreamingSegmentationSpec extends SparkSpec {

  private val cfg = ClaSSConfig(d = 500)

  /** Run the operator over `series` (one or more keyed streams), feeding
    * `chunk` readings per micro-batch, and collect CPs per key.
    */
  private def runStreaming(series: Map[String, Array[Double]], chunk: Int): Map[String, Vector[Long]] = {
    val session = spark
    import session.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[SensorReading]
    val cps = StreamingSegmentation.changePoints(input.toDS(), cfg)
    val query = cps.writeStream
      .format("memory")
      .queryName("cps_out")
      .outputMode(OutputMode.Append())
      .start()
    try {
      val maxLen = series.values.map(_.length).max
      var offset = 0
      while (offset < maxLen) {
        val batch = series.toSeq.flatMap { case (id, xs) =>
          (offset until math.min(offset + chunk, xs.length)).map(i => SensorReading(id, i.toLong, xs(i)))
        }
        if (batch.nonEmpty) input.addData(batch)
        query.processAllAvailable()
        offset += chunk
      }
      spark.table("cps_out").as[DetectedChangePoint].collect()
        .groupBy(_.streamId).view
        .mapValues(_.map(_.position).toVector.sorted).toMap
    } finally {
      query.stop()
      spark.sql("DROP TABLE IF EXISTS cps_out")
    }
  }

  private def offlineCps(xs: Array[Double]): Vector[Long] =
    StreamSegmenter.segmentSeries(new ClaSS(cfg), xs)

  test("streaming operator reproduces the offline segmentation across micro-batches") {
    val xs = Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.05, 131)
    val streaming = runStreaming(Map("s1" -> xs), chunk = 700)
    assert(streaming.getOrElse("s1", Vector.empty) == offlineCps(xs))
    assert(streaming("s1").nonEmpty)
  }

  test("state survives many small micro-batches") {
    val xs = Reference.Signals.twoRegimes(3000, 1500, 18, 45, 0.05, 132)
    val streaming = runStreaming(Map("s1" -> xs), chunk = 137) // 22 batches
    assert(streaming.getOrElse("s1", Vector.empty) == offlineCps(xs))
  }

  test("interleaved keys segment independently") {
    val xsA = Reference.Signals.twoRegimes(3500, 1700, 20, 50, 0.05, 133)
    val xsB = Reference.Signals.noisySine(3500, 30, 0.2, 134) // homogeneous
    val streaming = runStreaming(Map("a" -> xsA, "b" -> xsB), chunk = 500)
    assert(streaming.getOrElse("a", Vector.empty) == offlineCps(xsA))
    assert(streaming.getOrElse("b", Vector.empty) == offlineCps(xsB))
    assert(streaming("a").nonEmpty)
    assert(streaming.getOrElse("b", Vector.empty).isEmpty)
  }

  test("detection sequence numbers never precede the reported position") {
    val session = spark
    import session.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val xs = Reference.Signals.twoRegimes(3000, 1500, 20, 50, 0.05, 135)
    val input = MemoryStream[SensorReading]
    val query = StreamingSegmentation.changePoints(input.toDS(), cfg)
      .writeStream.format("memory").queryName("cps_latency")
      .outputMode(OutputMode.Append()).start()
    try {
      input.addData(xs.zipWithIndex.map { case (v, i) => SensorReading("s", i.toLong, v) }.toSeq)
      query.processAllAvailable()
      val rows = spark.table("cps_latency").as[DetectedChangePoint].collect()
      assert(rows.nonEmpty)
      rows.foreach(r => assert(r.detectedSeq >= r.position))
    } finally {
      query.stop()
      spark.sql("DROP TABLE IF EXISTS cps_latency")
    }
  }

  test("the operator keeps one state store per core, not one per idle partition") {
    val session = spark
    import session.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[SensorReading]
    val query = StreamingSegmentation.changePoints(input.toDS(), cfg)
      .writeStream.format("memory").queryName("cps_partitions")
      .outputMode(OutputMode.Append()).start()
    try {
      input.addData((0 until 600).map(i => SensorReading("s", i.toLong, math.sin(i / 10.0))))
      query.processAllAvailable()
      assert(query.lastProgress.stateOperators.head.numShufflePartitions ==
        spark.sparkContext.defaultParallelism)
    } finally {
      query.stop()
      spark.sql("DROP TABLE IF EXISTS cps_partitions")
    }
  }

  test("batch (non-streaming) usage works too") {
    val session = spark
    import session.implicits._
    val xs = Reference.Signals.twoRegimes(3000, 1500, 20, 50, 0.05, 136)
    val ds = spark.createDataset(xs.zipWithIndex.map { case (v, i) => SensorReading("k", i.toLong, v) }.toSeq)
    val cps = StreamingSegmentation.changePoints(ds, cfg).collect().map(_.position).toVector.sorted
    assert(cps == offlineCps(xs))
  }
}
