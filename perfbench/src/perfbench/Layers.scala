package perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.streaming.StreamingQueryProgress
import repro.core.ClaSS

/** Per-layer metrics of a traced run. `core.*` come from [[Trace]]; the
  * Spark side (`stream.*`) from `StreamingQueryProgress` and a
  * `SparkListener`; `data.*` from timing the corpus generator.
  */
object Layers {
  def spanFile(a: Main.Args): java.nio.file.Path =
    java.nio.file.Paths.get(".bench_build", "perfbench-traces", s"${a.workload}-seed${a.seed}.tsv")

  /** core.* and trace.* from the traced phase. */
  def trace(r: Result, untracedPps: Double, tracedPps: Double, tracedPoints: Long): Unit = {
    import Trace._
    val t = totals()
    r.layer("core.class_update_ns", t.meanNs(ClassUpdate), "ns")
    r.layer("core.class_updates", t.count(ClassUpdate).toDouble, "count")
    r.layer("core.class_self_ns", t.classSelfNs, "ns")
    r.layer("core.knn_update_ns", t.meanNs(KnnUpdate), "ns")
    r.layer("core.knn_updates", t.count(KnnUpdate).toDouble, "count")
    r.layer("core.sweep_ns", t.meanNs(Sweep), "ns")
    r.layer("core.sweeps", t.count(Sweep).toDouble, "count")
    r.layer("core.sweep_rows", if (t.count(Sweep) == 0) 0.0 else t.sweepRows.toDouble / t.count(Sweep), "rows")
    r.layer("core.sweeps_full_scope", t.sweepsFullScope.toDouble, "count")
    r.layer("core.sweeps_past_min_score", t.sweepsPastMinScore.toDouble, "count")
    r.layer("core.wilcoxon_ns", t.meanNs(Wilcoxon), "ns")
    r.layer("core.wilcoxon_calls", t.count(Wilcoxon).toDouble, "count")
    r.layer("core.suss_ms", t.meanNs(Suss) / 1e6, "ms")
    r.layer("core.suss_calls", t.count(Suss).toDouble, "count")
    r.layer("trace.points", tracedPoints.toDouble, "count")
    r.layer("trace.spans", t.spans.toDouble, "count")
    r.layer("trace.points_per_s_untraced", untracedPps, "1/s")
    r.layer("trace.points_per_s_traced", tracedPps, "1/s")
    r.layer("trace.overhead_points_per_s", untracedPps - tracedPps, "1/s")
  }

  def cps(r: Result, n: Long): Unit = r.layer("core.cps", n.toDouble, "count")

  /** The k-NN rows of one stream against the naive reference at two steps:
    * while the window fills, and once points leave it.
    */
  def knnExact(r: Result, s: Stream): Unit = {
    val d = Inputs.Cfg.d
    val steps = Seq(d * 3 / 4, d + 100)
    r.check(s.n >= steps.max, s"${s.id}: ${s.n} points, too short for the k-NN check at ${steps.max}")
    val (_, c) = Checks.sequential(s.values, math.min(s.n, Inputs.Cfg.effectiveWarmup))
    Checks.knnExact(r, s, c.width, steps.filter(_ <= s.n))
  }

  def kryo(r: Result, segmenters: Seq[ClaSS]): Unit = {
    r.layer("stream.state_kryo_bytes", Main.mean(segmenters.map(Checks.kryoBytes(_).toDouble)), "bytes")
    r.layer("stream.state_kryo_roundtrip_us",
      Main.median(segmenters.map(Checks.kryoRoundtripUs(_, 5))), "us")
  }

  private val sparkMetrics = Seq(
    "stream.batches" -> "count", "stream.trigger_ms" -> "ms", "stream.add_batch_ms" -> "ms",
    "stream.planning_ms" -> "ms", "stream.wal_ms" -> "ms", "stream.state_commit_ms" -> "ms",
    "stream.state_update_ms" -> "ms", "stream.state_memory_bytes" -> "bytes",
    "stream.shuffle_partitions" -> "count", "stream.tasks_per_batch" -> "count",
    "stream.task_run_ms" -> "ms", "stream.task_gc_ms" -> "ms", "stream.shuffle_bytes_per_batch" -> "bytes")

  /** No Spark runs on class-standalone: its Spark metrics read 0. */
  def noStream(r: Result): Unit = sparkMetrics.foreach { case (n, u) => r.layer(n, 0.0, u) }

  /** stream.* over the given batches of one query: durations and state
    * metrics are per-batch means from the query's progress; task counts and
    * times are per-batch means from the listener.
    */
  def spark(r: Result, ps: Seq[StreamingQueryProgress], tasks: TaskListener.Sums): Unit = {
    def mean(f: StreamingQueryProgress => Double) = Main.mean(ps.map(f))
    def dur(keys: String*)(p: StreamingQueryProgress) =
      keys.map(k => Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)).sum
    val b = ps.size.toDouble
    r.layer("stream.batches", b, "count")
    r.layer("stream.trigger_ms", mean(dur("triggerExecution")), "ms")
    r.layer("stream.add_batch_ms", mean(dur("addBatch")), "ms")
    r.layer("stream.planning_ms", mean(dur("queryPlanning")), "ms")
    r.layer("stream.wal_ms", mean(dur("walCommit", "commitOffsets")), "ms")
    r.layer("stream.state_commit_ms", mean(_.stateOperators.map(_.commitTimeMs.toDouble).sum), "ms")
    r.layer("stream.state_update_ms", mean(_.stateOperators.map(_.allUpdatesTimeMs.toDouble).sum), "ms")
    r.layer("stream.state_memory_bytes", ps.last.stateOperators.map(_.memoryUsedBytes.toDouble).sum, "bytes")
    r.layer("stream.shuffle_partitions", ps.last.stateOperators.map(_.numShufflePartitions.toDouble).sum, "count")
    r.layer("stream.tasks_per_batch", tasks.tasks / b, "count")
    r.layer("stream.task_run_ms", tasks.runMs / b, "ms")
    r.layer("stream.task_gc_ms", tasks.gcMs / b, "ms")
    r.layer("stream.shuffle_bytes_per_batch", tasks.shuffleBytes / b, "bytes")
  }
}

/** Counts the tasks of one streaming query's micro-batches from a given
  * batch on (up to `untilBatch`), from the job properties Structured
  * Streaming sets.
  */
final class TaskListener(queryId: String, fromBatch: Long) extends SparkListener {
  @volatile var untilBatch = Long.MaxValue
  private val stages = ConcurrentHashMap.newKeySet[Int]()
  private val tasks, runMs, gcMs, shuffleBytes = new AtomicLong
  @volatile private var lastEventNs = System.nanoTime()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val p = e.properties
    val batch = Option(p).flatMap(p => Option(p.getProperty("streaming.sql.batchId"))).map(_.toLong)
    if (p != null && p.getProperty("sql.streaming.queryId") == queryId && batch.exists(b => b >= fromBatch && b < untilBatch))
      e.stageIds.foreach(stages.add(_))
    lastEventNs = System.nanoTime()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    if (stages.contains(e.stageId) && e.taskMetrics != null) {
      tasks.incrementAndGet()
      runMs.addAndGet(e.taskMetrics.executorRunTime)
      gcMs.addAndGet(e.taskMetrics.jvmGCTime)
      shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
    lastEventNs = System.nanoTime()
  }

  /** Totals once the listener bus has been quiet for a moment. */
  def sums(): TaskListener.Sums = {
    val deadline = System.nanoTime() + 5e9.toLong
    while (System.nanoTime() - lastEventNs < 300e6.toLong && System.nanoTime() < deadline) Thread.sleep(50)
    TaskListener.Sums(tasks.get, runMs.get, gcMs.get, shuffleBytes.get)
  }
}

object TaskListener {
  final case class Sums(tasks: Long, runMs: Long, gcMs: Long, shuffleBytes: Long)
}
