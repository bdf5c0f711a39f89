package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{OutputMode, StreamingQueryListener, StreamingQueryProgress}
import repro.jobs.JobSession
import repro.stream.{DetectedChangePoint, SensorReading, StreamingSegmentation}

/** operator-one-stream and operator-many-streams: the program's
  * `StreamingSegmentation` operator on the program's own local Spark session
  * (`JobSession`: local[*], 64 shuffle partitions), fed from RAM through a
  * MemoryStream. A closed loop: the next micro-batch is added once
  * `processAllAvailable` returned for the previous one.
  */
object Operator {
  /** A run times `round(seconds / nominal batch time)` micro-batches (at
    * least the workload's minimum): about `seconds` at the program's
    * defaults on a 4-core machine. The count does not depend on how fast
    * the batches go, so every run does the same work and meets the same JIT
    * trend.
    */
  val OneStreamBatchS = 3.0
  val ManyStreamsBatchS = 5.0
  /** one-stream: untimed micro-batches at the start of the timed query
    * (the cold first micro-batch, SuSS and the window filling). After the
    * timed micro-batches the rest of the stream goes in one untimed
    * micro-batch, so that the quality metrics score the whole stream.
    */
  val WarmupBatches = 2
  /** many-streams: keys, and points per key per micro-batch: the program's
    * own chunk (`ThroughputHarness`, [[Inputs.Chunk]]). Every key's first
    * chunk (SuSS and the window filling) goes in one untimed micro-batch.
    */
  val Keys = 32
  val KeyChunk = Inputs.Chunk
  /** many-streams: the quality metrics score the untimed chunk and the
    * ScoredBatches chunks after it; each key holds MaxBatches after it.
    */
  val ScoredBatches = 2
  val MaxBatches = 4
  /** many-streams: keys checked against a sequential ClaSS (a seeded sample);
    * the sequential runs have tracing off, so on traced runs this also
    * checks that tracing does not change the CPs.
    */
  val ReferenceKeys = 8

  private final class Query(spark: SparkSession, name: String) {
    import spark.implicits._
    private implicit val ctx: org.apache.spark.sql.SQLContext = spark.sqlContext
    private val input = MemoryStream[SensorReading]
    val q = StreamingSegmentation.changePoints(input.toDS(), Inputs.Cfg)
      .writeStream.format("memory").queryName(name).outputMode(OutputMode.Append()).start()
    var batches = 0

    /** Add one micro-batch and wait until it is processed; wall ms. */
    def feed(rows: Seq[SensorReading]): Double = {
      val t0 = System.nanoTime()
      input.addData(rows)
      q.processAllAvailable()
      batches += 1
      (System.nanoTime() - t0) / 1e6
    }

    def output(): Map[String, Vector[Detection]] =
      spark.table(name).as[DetectedChangePoint].collect().toVector.groupBy(_.streamId)
        .map { case (k, v) => k -> v.map(c => Detection(c.position, c.detectedSeq)).sortBy(_.detectedAt) }

    def stop(): Unit = { q.stop(); spark.sql(s"DROP TABLE IF EXISTS $name") }
  }

  /** Progress events of every query, collected as Spark posts them. */
  private final class Progress extends StreamingQueryListener {
    private val all = new ConcurrentLinkedQueue[StreamingQueryProgress]()
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = all.add(e.progress)

    /** Progress of the query's data batches from `fromBatch`, once `n` arrived. */
    def of(id: java.util.UUID, fromBatch: Long, n: Int): Seq[StreamingQueryProgress] = {
      def got = all.asScala.toVector.filter(p => p.id == id && p.batchId >= fromBatch && p.numInputRows > 0)
      val deadline = System.nanoTime() + 5e9.toLong
      while (got.size < n && System.nanoTime() < deadline) Thread.sleep(20)
      got.sortBy(_.batchId)
    }
  }

  private def rows(streams: Seq[Stream], from: Int, len: Int): Seq[SensorReading] =
    streams.flatMap(s => (from until from + len).map(i => SensorReading(s.id, i.toLong, s.values(i))))

  def run(a: Main.Args, r: Result, manyStreams: Boolean): Unit = {
    val spark = JobSession.create(s"perfbench-${a.workload}")
    try run(a, r, manyStreams, spark) finally spark.stop()
  }

  private def run(a: Main.Args, r: Result, manyStreams: Boolean, spark: SparkSession): Unit = {
    val sessionS = Main.sinceLaunchS(a)
    val progress = new Progress
    spark.streams.addListener(progress)
    val (streams, chunk, scoredLen) =
      if (manyStreams)
        (Inputs.manyStreams(a.seed, Keys, (1 + MaxBatches) * KeyChunk), KeyChunk,
          (1 + ScoredBatches) * KeyChunk)
      else (Vector(Inputs.longStream(a.seed)), Inputs.Chunk, Inputs.LongStreamLength)
    val inputsS = Main.sinceLaunchS(a)

    // JIT warm-up, untimed: ClaSS on the driver thread over a stream not in
    // the timed set (past the first full window, so the sliding path is
    // compiled too), then the first micro-batches of the query, so that
    // timing starts in its steady state: one-stream's first WarmupBatches
    // chunks, many-streams' first chunk of every key.
    val ws = Inputs.operatorWarmup(a.seed)
    Checks.sequential(ws.values, ws.n)
    val q = new Query(spark, "timed")
    val warmupMs = (0 until (if (manyStreams) 1 else WarmupBatches))
      .map(b => q.feed(rows(streams, b * chunk, chunk)))
    var fed = warmupMs.size * chunk
    val start = fed
    val firstTimed = q.batches.toLong
    val tasks = new TaskListener(q.q.id.toString, firstTimed)
    spark.sparkContext.addSparkListener(tasks)
    if (a.trace) { Trace.reset(); Trace.minScore = Inputs.Cfg.minScore }
    val setupS = Main.sinceLaunchS(a)

    // The timed micro-batches. On traced runs half of them are traced, in
    // the order T U U T T U U T ..., so that the JIT trend falls on both
    // halves alike.
    val nominalS = if (manyStreams) ManyStreamsBatchS else OneStreamBatchS
    val batches = math.min(math.max(if (a.trace) 4 else 1, math.round(a.seconds / nominalS).toInt),
      (streams.head.n - start) / chunk)
    def traced(batch: Int) = a.trace && batch % 4 % 3 == 0
    val batchMs = ArrayBuffer.empty[Double]
    val points = Array(0L, 0L) // untraced, traced
    val ns = Array(0.0, 0.0)
    while (batchMs.size < batches) {
      val half = if (traced(batchMs.size)) 1 else 0
      val rs = rows(streams, fed, chunk)
      Trace.on = half == 1
      val t = q.feed(rs)
      Trace.on = false
      batchMs += t; points(half) += rs.size; ns(half) += t * 1e6; fed += chunk
    }
    tasks.untilBatch = firstTimed + batches
    if (fed < scoredLen) {
      q.feed(rows(streams, fed, scoredLen - fed))
      fed = scoredLen
    }
    val out = q.output()
    val ps = progress.of(q.q.id, firstTimed, batches).take(batches)
    q.stop()
    spark.sparkContext.removeSparkListener(tasks)
    println(f"# batches=$batches points=${points.sum} keys=${streams.size} chunk=$chunk " +
      f"points_per_key=$fed first_timed_point=$start session_ready_s=$sessionS%.2f " +
      f"inputs_ready_s=$inputsS%.2f first_timed_point_s=$setupS%.2f " +
      s"warmup_batch_ms=${warmupMs.map(_.round).mkString(",")} batch_ms=${batchMs.map(_.round).mkString(",")}")

    // Checks: CP properties on every key; the operator's CPs equal a
    // sequential ClaSS fed the same readings (every key, or a seeded sample).
    streams.foreach(s => Checks.properties(r, s.id, fed, out.getOrElse(s.id, Vector.empty)))
    val sample =
      if (streams.size <= ReferenceKeys) streams
      else new scala.util.Random(a.seed).shuffle(streams).take(ReferenceKeys)
    val reference = sample.map { s =>
      val (ds, c) = Checks.sequential(s.values, fed)
      r.check(out.getOrElse(s.id, Vector.empty) == ds,
        s"${s.id}: operator CPs ${out.getOrElse(s.id, Vector.empty)} vs sequential ClaSS $ds")
      c
    }
    r.check(ps.size == batches, s"${ps.size} progress reports for $batches timed micro-batches")
    val scored = streams.map(s => (s, out.getOrElse(s.id, Vector.empty), scoredLen))
    val cov = Checks.covering(scored)
    Checks.coveringFloor(r, cov)
    r.attempted += batches

    val state = ps.last.stateOperators.head
    r.e2e("points_per_s", points.sum / (ns.sum / 1e9), "1/s")
    r.e2e("batch_p50_ms", Main.median(batchMs.toSeq), "ms")
    r.e2e("covering", cov, "fraction")
    r.e2e("detection_delay_points", Checks.delay(scored), "points")
    r.e2e("state_bytes_per_stream", state.memoryUsedBytes.toDouble / state.numRowsTotal, "bytes")
    r.e2e("setup_s", setupS, "s")
    if (a.trace) {
      Layers.trace(r, points(0) / (ns(0) / 1e9), points(1) / (ns(1) / 1e9), points(1))
      // CPs reported while a traced micro-batch ran
      Layers.cps(r, out.values.flatten.count { d =>
        val b = (d.detectedAt - start) / chunk
        d.detectedAt >= start && b < batches && traced(b.toInt)
      }.toLong)
      Layers.knnExact(r, streams.head)
      Layers.kryo(r, reference)
      Layers.spark(r, ps, tasks.sums())
      r.layer("data.generate_ms", Inputs.generateMs, "ms")
      Trace.writeSpans(Layers.spanFile(a))
    }
  }
}
