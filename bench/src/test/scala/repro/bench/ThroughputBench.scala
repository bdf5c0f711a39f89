package repro.bench

import repro.SparkSpec
import repro.core.ClaSSConfig
import repro.data.{GeneratedSeries, SeriesSpec, SyntheticCorpus}
import repro.eval.{Covering, Sweep}
import repro.stream.{MemorySinkQuery, SensorReading}

/** Subsection 4.4 — runtime and throughput. Reproduces (a) the standalone
  * per-method data throughput ordering (paper Figure 6, numbers quoted in
  * text), (b) the ClaSS window-size sweep (throughput up / Covering roughly
  * flat as d shrinks), and (c) the stream-engine operator throughput — the
  * paper's Apache Flink experiment, here as the Structured Streaming
  * stateful operator.
  */
class ThroughputBench extends SparkSpec {
  import ThroughputBench._

  test("standalone throughput: cheap drift detectors are fastest; every method is real-time") {
    // Paper (points/second): HDDM 26458, DDM 26031, NEWMA 15949, ADWIN 12958,
    // Window 2991, ..., ClaSS 1408, FLOSS 378.
    val series = SyntheticCorpus.specs().filter(_.tier == SyntheticCorpus.Benchmark)
      .take(6).map(SyntheticCorpus.generate)
    // JIT warm-up.
    Sweep.evaluateOne(series.head, "ClaSS", 2000)
    val rates = Sweep.AllMethods.map { m =>
      val r = series.map { s => val e = Sweep.evaluateOne(s, m, 2000); e.points / (e.runtimeMs / 1000.0) }
      m -> r.sum / r.size
    }.toMap

    println("\n=== Standalone throughput (points/second), paper vs ours ===")
    val paper = Map("HDDM" -> 26458, "DDM" -> 26031, "NEWMA" -> 15949, "ADWIN" -> 12958,
      "Window" -> 2991, "ChangeFinder" -> 2500, "ClaSS" -> 1408, "FLOSS" -> 378, "BOCD" -> 400)
    Sweep.AllMethods.sortBy(m => -rates(m)).foreach { m =>
      println(f"$m%-13s paper ~${paper(m)}%6d   ours ${rates(m)}%12.0f")
    }

    // Shape: O(1)-ish methods are faster than the window-scaled ones.
    assert(rates("DDM") > rates("ClaSS"))
    assert(rates("HDDM") > rates("ClaSS"))
    // Everything clears the paper's 1k points/second real-time bar.
    rates.foreach { case (m, r) => assert(r > 1000, s"$m only $r points/s") }
  }

  test("ClaSS window-size sweep: halving d raises throughput, Covering stays in a narrow band") {
    // Paper: d=5k gives 1.8x throughput at -1.8pp Covering; d=20k gives 0.6x at +0.3pp.
    val specs = SyntheticCorpus.specs().filter(_.dataset == "TSSB").take(8)
    val rows = classWindowSweep(specs, Seq(1000, 2000, 4000))
    println("\n=== ClaSS throughput/Covering vs sliding window size d ===")
    rows.foreach(r => println(f"d=${r.d}%5d  covering=${r.meanCovering * 100}%5.1f%%  points/s=${r.pointsPerSec}%10.0f"))
    val byD = rows.map(r => r.d -> r).toMap
    assert(byD(1000).pointsPerSec > byD(4000).pointsPerSec,
      "throughput must fall as the window grows")
    val covs = rows.map(_.meanCovering)
    assert(covs.max - covs.min < 0.25, s"Covering not stable across d: $covs")
  }

  test("Structured Streaming operator sustains throughput comparable to standalone ClaSS") {
    // Paper: Flink operator averages 1004 points/s vs 1408 standalone (~71%).
    val series = SyntheticCorpus.specs().filter(_.dataset == "UTSA")
      .take(3).map(SyntheticCorpus.generate)
    val cfg = ClaSSConfig(d = 2000)
    val standalone = series.map { s =>
      val e = Sweep.evaluateOne(s, "ClaSS", 2000); e.points / (e.runtimeMs / 1000.0)
    }
    val operator = series.map(s => measureOperator(s, cfg))
    println("\n=== Structured Streaming ClaSS operator (paper Flink: 1004 pts/s avg, peak 2063) ===")
    operator.zip(standalone).foreach { case (o, st) =>
      println(f"${o.streamId}%-10s points=${o.points}%6d cps=${o.cps}%2d covering=${o.covering * 100}%5.1f%% " +
        f"operator=${o.pointsPerSec}%9.0f pts/s standalone=$st%9.0f pts/s")
    }
    val avgOp = operator.map(_.pointsPerSec).sum / operator.size
    val avgSt = standalone.sum / standalone.size
    assert(avgOp > 1000, s"operator too slow: $avgOp points/s") // the paper's bar
    assert(avgOp > avgSt * 0.05, s"operator overhead out of band: $avgOp vs $avgSt")
    // The operator must still segment correctly while being fast.
    assert(operator.map(_.covering).sum / operator.size > 0.5)
  }

  /** Measure the Structured Streaming ClaSS operator on one series: the
    * series is loaded from RAM, fed through a MemoryStream in 2000-point
    * micro-batches at maximum speed, and timed end to end (sequential
    * processing — a single STSS operator instance segments one stream at a
    * time, as in the paper's Flink evaluation).
    */
  private def measureOperator(series: GeneratedSeries, cfg: ClaSSConfig): OperatorRun = {
    val id = s"${series.spec.dataset}-${series.spec.seriesId}"
    val xs = series.values
    val batches = xs.indices.grouped(2000).map(_.map(i => SensorReading(id, i.toLong, xs(i))))
    val run = MemorySinkQuery.run(spark, cfg, batches)
    val cps = run.cps.map(_.position).sorted
    OperatorRun(id, xs.length.toLong, cps.size.toLong, xs.length / (run.feedMs / 1000.0),
      Covering.covering(series.changePoints, cps, xs.length.toLong))
  }
}

object ThroughputBench {

  /** ClaSS Covering + throughput for a window-size sweep over given specs. */
  final case class DSweepRow(d: Int, meanCovering: Double, pointsPerSec: Double)
  def classWindowSweep(specs: Seq[SeriesSpec], dValues: Seq[Int]): Seq[DSweepRow] =
    dValues.map { d =>
      val rows = specs.map(s => Sweep.evaluateOne(SyntheticCorpus.generate(s), "ClaSS", d))
      DSweepRow(
        d,
        rows.map(_.covering).sum / rows.size,
        rows.map(_.points.toDouble).sum / (rows.map(_.runtimeMs).sum / 1000.0))
    }

  /** Result of one operator-throughput run. */
  final case class OperatorRun(streamId: String, points: Long, cps: Long,
                               pointsPerSec: Double, covering: Double)
}
