package perfbench

import scala.collection.mutable

/** Entry point of the measuring JVM (started by perfbench/run.py).
  *
  * Prints context lines, then as its last line one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
  * untraced, the per-layer metrics traced.
  */
object Main {
  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        launchedNs: Long, heap: String, sourceSha: String, gitSha: String)

  def main(argv: Array[String]): Unit = {
    val kv = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val a = Args(kv("workload"), kv("seed").toLong, kv("seconds").toDouble, kv("trace") == "1",
      kv("launched-ns").toLong, kv("heap"), kv("source-sha256"), kv("git-sha"))
    val rt = Runtime.getRuntime
    println(s"# workload=${a.workload} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    println(s"# nproc=${rt.availableProcessors} heap=${a.heap} maxHeapBytes=${rt.maxMemory} " +
      s"java=${System.getProperty("java.version")} git_sha=${a.gitSha} source_sha256=${a.sourceSha}")
    val r = new Result(a)
    a.workload match {
      case "class-standalone" => Standalone.run(a, r)
      case "operator-one-stream" => Operator.run(a, r, manyStreams = false)
      case "operator-many-streams" => Operator.run(a, r, manyStreams = true)
    }
    if (a.trace) {
      // A boundary the agent could not match, or a sweep it could only time
      // plainly, would read 0 and look like a gain: the traced run is invalid.
      val missing = Trace.Names.indices.filterNot(i => Trace.instrumented.contains(i)).map(Trace.Names(_))
      r.check(missing.isEmpty, s"trace agent matched no call of ${missing.mkString(", ")}")
      r.check(Trace.agentError.isEmpty, s"trace agent: ${Trace.agentError}")
    }
    println(r.json)
    System.out.flush()
    // Spark's non-daemon threads must not keep the JVM alive.
    System.exit(0)
  }

  /** Wall time since the JVM was launched, in seconds. */
  def sinceLaunchS(a: Args): Double = {
    val now = java.time.Instant.now()
    (now.getEpochSecond * 1000000000L + now.getNano - a.launchedNs) / 1e9
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** What a run reports: checks, operation counts and metrics. */
final class Result(a: Main.Args) {
  private var ok = true
  var attempted = 0L
  var failed = 0L
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]

  /** A correctness check that failed: the run's outputs are wrong. */
  def fail(msg: String): Unit = { ok = false; Console.err.println(s"perfbench: CHECK FAILED: $msg") }
  def check(cond: Boolean, msg: => String): Unit = if (!cond) fail(msg)

  /** End-to-end metrics are kept on untraced runs, per-layer ones on traced. */
  def e2e(name: String, value: Double, unit: String): Unit = if (!a.trace) put(name, value, unit)
  def layer(name: String, value: Double, unit: String): Unit = if (a.trace) put(name, value, unit)
  private def put(name: String, value: Double, unit: String): Unit = {
    if (value.isNaN || value.isInfinite) fail(s"metric $name is $value")
    metrics(name) = (value, unit)
  }

  def json: String = {
    val ms = metrics.map { case (k, (v, u)) =>
      val num = if (v.isNaN || v.isInfinite) "0" else BigDecimal(v).bigDecimal.toPlainString
      s""""$k": {"value": $num, "unit": "$u"}"""
    }
    s"""{"correct": $ok, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
