package perfbench

import repro.core.{ClaSSConfig, Rng}
import repro.data.{Regime, SeriesSpec, SyntheticCorpus}

/** A stream the benchmark feeds, with its ground-truth change points. */
final case class Stream(id: String, values: Array[Double], cps: Vector[Long]) {
  def n: Int = values.length
  /** The first `len` points, with the change points that lie inside them. */
  def cut(len: Int): Stream = Stream(id, values.take(len), cps.filter(_ < len))
}

/** Workload inputs. Everything the timed loops see is drawn from the
  * program's seeded synthetic corpus (`SyntheticCorpus.specs(seed)`), so the
  * same seed gives the same inputs; only the fault probes are fixed.
  */
object Inputs {
  /** ClaSS with the program's defaults (d = 2000, k = 3, learned width). */
  val Cfg: ClaSSConfig = ClaSSConfig()
  /** Points per micro-batch on operator-one-stream (the program's own
    * `ThroughputHarness` chunk), and per timed chunk on class-standalone.
    */
  val Chunk = 2000

  /** Time spent generating inputs in this JVM, ms. */
  var generateMs = 0.0

  def generate(specs: Seq[SeriesSpec]): Vector[Stream] = {
    val t0 = System.nanoTime()
    val out = specs.map { s =>
      val g = SyntheticCorpus.generate(s)
      Stream(s"${s.dataset}-${s.seriesId}-${s.seed}", g.values, g.changePoints)
    }.toVector
    generateMs += (System.nanoTime() - t0) / 1e6
    out
  }

  private def take(specs: Seq[SeriesSpec], plan: Seq[(String, Int, Int)]): Seq[SeriesSpec] =
    plan.flatMap { case (dataset, from, count) => specs.filter(_.dataset == dataset).slice(from, from + count) }

  /** class-standalone: from each of two corpora, `specs(seed)` and
    * `specs(seed + SecondCorpus)`, the whole benchmark tier (30 TSSB and 12
    * UTSA series: short, clean, frequent CPs keep the scored scope small)
    * and the first mHealth and SleepDB series (long, noisy: the scope stays
    * at the full window and many splits fail minScore). 88 streams, about
    * 410k points. How fast ClaSS runs depends on the mix (per-point cost
    * differs by up to 1.6x between one seed's UTSA series and another's),
    * and a stream's detection delay is about 4·w for nearly all of its CPs,
    * w being the width SuSS learns: two corpora per seed keep both steadier
    * across seeds than one.
    */
  val SecondCorpus = 1000000L
  def standaloneSet(seed: Long): Vector[Stream] =
    Vector(seed, seed + SecondCorpus).flatMap { c =>
      val specs = SyntheticCorpus.specs(c)
      generate(specs.filter(_.tier == SyntheticCorpus.Benchmark) ++
        take(specs, Seq(("mHealth", 0, 1), ("SleepDB", 0, 1))))
    }

  /** JIT warm-up streams: same corpus, series not in the timed set, each
    * cut to [[WarmupLength]] points so that the warm-up (part of setup_s)
    * does the same work on every seed.
    */
  val WarmupLength = 10000 // PAMAP's shortest length
  def standaloneWarmup(seed: Long): Vector[Stream] =
    generate(take(SyntheticCorpus.specs(seed), Seq(("PAMAP", 0, 4)))).map(_.cut(WarmupLength))

  /** Fault probes: fixed benchmark-tier series with at least two change
    * points, independent of the workload seed.
    */
  val FaultCorpusSeed = 42L
  def faultSeries(): Vector[Stream] =
    generate(SyntheticCorpus.specs(FaultCorpusSeed)
      .filter(s => s.dataset == "TSSB" && s.nSegments >= 3 && s.length <= 4000).take(2))

  /** operator-one-stream: one stream of [[LongStreamLength]] points. It opens
    * with a 1000-point sine of period 40 (seeded amplitude, phase and noise),
    * which is what SuSS learns the width from, followed by the seed's
    * benchmark-tier series back to back. One stream has one width, and its
    * median detection delay is about 4·w; with a seeded corpus series first,
    * that median would only show which width SuSS drew (24 to 70 over ten
    * seeds, a 35% spread).
    */
  val LongStreamLength = 30000
  def longStream(seed: Long): Stream = {
    val t0 = System.nanoTime()
    val rng = new Rng(seed)
    val lead = new Array[Double](Cfg.effectiveWarmup)
    Regime.Sine(40, 0.8 + 1.2 * rng.nextDouble(), 0.0, 0.05 + 0.1 * rng.nextDouble())
      .generate(lead, 0, lead.length, rng)
    generateMs += (System.nanoTime() - t0) / 1e6
    val parts = Iterator(Stream("lead", lead, Vector.empty)) ++
      SyntheticCorpus.specs(seed).iterator.filter(_.tier == SyntheticCorpus.Benchmark)
        .map(s => generate(Seq(s)).head)
    val values = Array.newBuilder[Double]
    val cps = Vector.newBuilder[Long]
    var n = 0
    while (n < LongStreamLength) {
      val p = parts.next()
      if (n > 0) cps += n.toLong
      p.cps.foreach(c => cps += n + c)
      values ++= p.values
      n += p.n
    }
    Stream(s"long-$seed", values.result(), cps.result()).cut(LongStreamLength)
  }

  /** JIT warm-up stream for the operator workloads (not in the timed set). */
  def operatorWarmup(seed: Long): Stream =
    generate(take(SyntheticCorpus.specs(seed), Seq(("PAMAP", 0, 1)))).head.cut(WarmupLength)

  /** operator-many-streams: the first `keys` corpus series of at least `len`
    * points over consecutive corpus seeds derived from `seed`, each cut to
    * `len` points.
    */
  def manyStreams(seed: Long, keys: Int, len: Int): Vector[Stream] = {
    val specs = Iterator.from(0)
      .flatMap(j => SyntheticCorpus.specs(seed * 1000L + j).filter(_.length >= len))
      .take(keys).toVector
    generate(specs).map(_.cut(len))
  }
}
