package perfbench

import scala.collection.mutable.ArrayBuffer
import repro.core.ClaSS

/** class-standalone: ClaSS on one thread, one stream after another, no Spark
  * in the timed loop. A closed loop: each point is fed once the previous
  * update returned.
  */
object Standalone {
  /** A run makes `round(seconds / NominalPassS)` passes over the set (at
    * least one): a pass takes 27 to 38 s on a 4-core VM. The count does not
    * depend on how fast the passes go, so every run does the same work.
    */
  val NominalPassS = 32.0

  /** Timed chunks of [[Inputs.Chunk]] points, kept apart by whether
    * tracing recorded them.
    */
  final class Timing {
    val chunkMs = ArrayBuffer.empty[Double]
    val points = Array(0L, 0L) // untraced, traced
    val ns = Array(0L, 0L)
    def pointsPerS(half: Int): Double = points(half) / (ns(half) / 1e9)
    def allPointsPerS: Double = points.sum / (ns.sum / 1e9)

    /** Segment one stream; the CPs it reported and the segmenter. */
    def segment(s: Stream, traced: Boolean = false): (Vector[Detection], ClaSS) = {
      val c = new ClaSS(Inputs.Cfg)
      val out = Vector.newBuilder[Detection]
      val xs = s.values
      var i = 0
      var chunk = 0
      val half = if (traced) 1 else 0
      Trace.on = traced
      while (i < xs.length) {
        val hi = math.min(i + Inputs.Chunk, xs.length)
        val t0 = System.nanoTime()
        while (i < hi) {
          c.update(xs(i)).foreach(cp => out += Detection(cp, i))
          i += 1
        }
        val dt = System.nanoTime() - t0
        if (hi % Inputs.Chunk == 0) chunkMs += dt / 1e6
        points(half) += hi - chunk * Inputs.Chunk
        ns(half) += dt
        chunk += 1
      }
      Trace.on = false
      (out.result(), c)
    }
  }

  def run(a: Main.Args, r: Result): Unit = {
    val set = Inputs.standaloneSet(a.seed)
    val warm = new Timing
    Inputs.standaloneWarmup(a.seed).foreach(warm.segment(_))
    if (a.trace) { Trace.reset(); Trace.minScore = Inputs.Cfg.minScore }
    val setupS = Main.sinceLaunchS(a)

    // Whole passes over the set; every pass must report the CPs of the
    // first. A traced run makes two: untraced, then traced.
    val passes = if (a.trace) 2 else math.max(1, math.round(a.seconds / NominalPassS).toInt)
    val t = new Timing
    val t0 = System.nanoTime()
    def elapsedS = (System.nanoTime() - t0) / 1e9
    val first = set.map(t.segment(_))
    val passS = ArrayBuffer(elapsedS)
    while (passS.size < passes) {
      set.indices.foreach { i =>
        r.check(t.segment(set(i), a.trace)._1 == first(i)._1, s"${set(i).id}: CPs differ between passes")
      }
      passS += elapsedS - passS.sum
    }

    val scored = set.indices.map(i => (set(i), first(i)._1, set(i).n))
    set.indices.foreach(i => Checks.properties(r, set(i).id, set(i).n, first(i)._1))
    val cov = Checks.covering(scored)
    Checks.coveringFloor(r, cov)
    r.attempted += set.size
    faults(r)

    r.e2e("points_per_s", t.allPointsPerS, "1/s")
    r.e2e("batch_p50_ms", Main.median(t.chunkMs.toSeq), "ms")
    r.e2e("covering", cov, "fraction")
    r.e2e("detection_delay_points", Checks.delay(scored), "points")
    r.e2e("state_bytes_per_stream", Main.mean(first.map(f => Checks.kryoBytes(f._2).toDouble)), "bytes")
    r.e2e("setup_s", setupS, "s")
    if (a.trace) {
      Layers.trace(r, t.pointsPerS(0), t.pointsPerS(1), t.points(1))
      Layers.cps(r, first.map(_._1.size).sum.toLong) // the traced pass matched the untraced one
      Layers.knnExact(r, set.maxBy(_.n)) // the SleepDB series: 28k-32k points
      Layers.kryo(r, first.map(_._2))
      Layers.noStream(r)
      r.layer("data.generate_ms", Inputs.generateMs, "ms")
      Trace.writeSpans(Layers.spanFile(a))
    }
    println(f"# passes=$passes points=${t.points.sum} chunks=${t.chunkMs.size} streams=${set.size} " +
      f"set_points=${set.map(_.n).sum} cps=${first.map(_._1.size).sum} first_timed_point_s=$setupS%.2f " +
      s"pass_s=${passS.map(x => f"$x%.2f").mkString(",")}")
  }

  /** Fault probes, after the timed passes: the same fixed series shifted by
    * +1e8 and with one NaN during warm-up, each an operation that fails when
    * its CPs do not match the clean stream's. The same series as 3x-7 is a
    * control: its CPs must match, or the run is not correct.
    */
  private def faults(r: Result): Unit = {
    Inputs.faultSeries().foreach { s =>
      val clean = Checks.sequential(s.values, s.n)._1
      r.check(clean.nonEmpty, s"${s.id}: fault probe series has no CPs")
      def run(xs: Array[Double]) = Checks.sequential(xs, xs.length)._1
      def show(ds: Seq[Detection]) = ds.map(_.position).mkString(",")
      val control = run(s.values.map(3 * _ - 7))
      r.check(Checks.matches(clean, control),
        s"${s.id} affine3x-7: CPs ${show(control)} vs clean ${show(clean)}")
      Seq("offset+1e8" -> s.values.map(_ + 1e8), "nan@300" -> s.values.updated(300, Double.NaN))
        .foreach { case (name, xs) =>
          val got = run(xs)
          r.attempted += 1
          if (!Checks.matches(clean, got)) {
            r.failed += 1
            Console.err.println(s"perfbench: failed operation ${s.id} $name: CPs ${show(got)} vs clean ${show(clean)}")
          }
        }
    }
  }
}
