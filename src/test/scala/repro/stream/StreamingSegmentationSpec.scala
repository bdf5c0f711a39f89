package repro.stream

import java.io.File
import java.nio.file.Files
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.commons.io.FileUtils
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{OutputMode, StreamingQuery}
import repro.SparkSpec
import repro.core.{ClaSS, ClaSSConfig, Reference, StreamSegmenter}
import repro.data.SyntheticCorpus

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
    val batches = (0 until series.values.map(_.length).max by chunk).iterator.map { offset =>
      series.toSeq.flatMap { case (id, xs) =>
        (offset until math.min(offset + chunk, xs.length)).map(i => SensorReading(id, i.toLong, xs(i)))
      }
    }
    MemorySinkQuery.run(spark, cfg, batches).cps
      .groupBy(_.streamId).view
      .mapValues(_.map(_.position).sorted).toMap
  }

  private def offlineCps(xs: Array[Double]): Vector[Long] =
    StreamSegmenter.segmentSeries(new ClaSS(cfg), xs)

  /** Start the operator over `input` with its checkpoint in `dir` and a
    * `foreachBatch` sink (the memory sink refuses to recover from a
    * checkpoint) that adds every emitted CP to `out`.
    */
  private def startCheckpointed(input: MemoryStream[SensorReading], c: ClaSSConfig, dir: File,
                                out: ConcurrentLinkedQueue[DetectedChangePoint]): StreamingQuery = {
    val sink: (Dataset[DetectedChangePoint], Long) => Unit = (batch, _) => batch.collect().foreach(out.add)
    StreamingSegmentation.changePoints(input.toDS(), c).writeStream
      .option("checkpointLocation", dir.getPath)
      .outputMode(OutputMode.Append())
      .foreachBatch(sink)
      .start()
  }

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
    val xs = Reference.Signals.twoRegimes(3000, 1500, 20, 50, 0.05, 135)
    val batch = xs.zipWithIndex.map { case (v, i) => SensorReading("s", i.toLong, v) }.toSeq
    val rows = MemorySinkQuery.run(spark, cfg, Iterator(batch)).cps
    assert(rows.nonEmpty)
    rows.foreach(r => assert(r.detectedSeq >= r.position))
  }

  test("the operator keeps one state store per core, not one per idle partition") {
    val batch = (0 until 600).map(i => SensorReading("s", i.toLong, math.sin(i / 10.0)))
    val run = MemorySinkQuery.run(spark, cfg, Iterator(batch))
    assert(run.lastProgress.stateOperators.head.numShufflePartitions ==
      spark.sparkContext.defaultParallelism)
  }

  test("duplicate and late readings are dropped, not fed as new points") {
    val xs = Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.05, 137)
    def readings(seqs: Seq[Int]) = seqs.map(i => SensorReading("s", i.toLong, xs(i)))
    val late = 1500 until 1505
    val second = readings((1000 until 2000).filterNot(late.contains))
    // The second micro-batch is resent with the third, together with five
    // readings older than the last one processed.
    val batches = Seq(readings(0 until 1000), second,
      second ++ readings(late) ++ readings(2000 until 3000), readings(3000 until 4000))
    val got = MemorySinkQuery.run(spark, cfg, batches).cps
      .map(d => (d.position, d.detectedSeq)).sortBy(_._2)
    val sequential = new ClaSS(cfg)
    val want = xs.indices.filterNot(late.contains)
      .flatMap(i => sequential.update(xs(i)).map(cp => (cp, i.toLong))).toVector
    assert(want.nonEmpty)
    assert(got == want)
  }

  test("a query restarted from its checkpoint continues the segmentation") {
    val session = spark
    import session.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val c = ClaSSConfig()
    val xs = SyntheticCorpus.specs(1).filter(_.dataset == "mHealth").take(2)
      .flatMap(SyntheticCorpus.generate(_).values).take(14000).toArray
    val chunk = 2000
    val batches = xs.indices.grouped(chunk).map(_.map(i => SensorReading("s", i.toLong, xs(i)))).toVector
    val dir = Files.createTempDirectory("class-restart").toFile
    val out = new ConcurrentLinkedQueue[DetectedChangePoint]()
    try {
      val first = MemoryStream[SensorReading]
      val q1 = startCheckpointed(first, c, dir, out)
      try batches.take(4).foreach { b => first.addData(b); q1.processAllAvailable() }
      finally q1.stop()
      val beforeStop = out.size
      // A fresh source holds the consumed batches again at the same offsets;
      // the restarted query resumes after the last committed one.
      val second = MemoryStream[SensorReading]
      batches.take(4).foreach(second.addData(_))
      val q2 = startCheckpointed(second, c, dir, out)
      try batches.drop(4).foreach { b => second.addData(b); q2.processAllAvailable() }
      finally q2.stop()
      val sequential = new ClaSS(c)
      val want = xs.indices.flatMap(i => sequential.update(xs(i)).map(cp => (cp, i.toLong))).toVector
      val got = out.asScala.toVector.map(d => (d.position, d.detectedSeq)).sortBy(_._2)
      assert(got == want)
      assert(beforeStop > 0 && beforeStop < want.size, s"$beforeStop of ${want.size} CPs before the restart")
    } finally FileUtils.deleteDirectory(dir)
  }

  test("a committed micro-batch keeps both checksums of its state file") {
    val session = spark
    import session.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val dir = Files.createTempDirectory("class-checksums").toFile
    try {
      val input = MemoryStream[SensorReading]
      val q = startCheckpointed(input, cfg, dir, new ConcurrentLinkedQueue[DetectedChangePoint]())
      try {
        input.addData((0 until 600).map(i => SensorReading("s", i.toLong, math.sin(i / 10.0))))
        q.processAllAvailable()
      } finally q.stop()
      val stores = FileUtils.listFiles(new File(dir, "state"), null, true).asScala
        .filter(_.getName == "1.delta").map(_.getParentFile)
      assert(stores.size == spark.sparkContext.defaultParallelism)
      stores.foreach { s =>
        // Spark's checksum of the delta file, and Hadoop's.
        assert(new File(s, "1.delta.crc").isFile, s"no 1.delta.crc in $s")
        assert(new File(s, ".1.delta.crc").isFile, s"no .1.delta.crc in $s")
      }
    } finally FileUtils.deleteDirectory(dir)
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
