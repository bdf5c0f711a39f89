package repro.bench

import repro.SparkSpec
import repro.core.Rng
import repro.eval.Sweep

/** Table 2 — competitor specification: published update complexity next to
  * the measured per-point cost of this repo's implementations. Checks the
  * complexity *shape*: window-scaled methods grow with `d`, constant-time
  * methods stay flat and far cheaper.
  */
class Table2Bench extends SparkSpec {
  import Table2Bench._

  test("Table 2: published complexity vs measured per-point cost") {
    val dValues = Seq(500, 1000, 2000, 4000)
    // An untimed pass of every window-scaled method at every d, so that no
    // timed figure includes compiling the method's code.
    for (m <- WindowScaled; d <- dValues)
      measure(m, d, steadyPoints = 1000)
    val rows = sweep(dValues)

    println("\n=== Table 2: update complexity (published) vs measured ns/point ===")
    println(f"${"method"}%-13s ${"published"}%-12s ${"d"}%6s ${"ns/point"}%12s")
    rows.sortBy(r => (r.method, r.d)).foreach { r =>
      println(f"${r.method}%-13s ${r.published}%-12s ${r.d}%6d ${r.nsPerPoint}%12.0f")
    }

    val byMethod = rows.groupBy(_.method)

    // (a) ClaSS and FLOSS scale with d (roughly linearly: 8x window -> cost
    //     grows at least 3x, at most 30x; generous against timer noise).
    for (m <- Seq("ClaSS", "FLOSS")) {
      val perD = byMethod(m).map(r => r.d -> r.nsPerPoint).toMap
      val ratio = perD(4000) / perD(500)
      assert(ratio > 3.0 && ratio < 30.0, s"$m scaling ratio $ratio")
    }

    // (b) The O(1)/O(log c) drift detectors are at least an order of
    //     magnitude cheaper per point than ClaSS at the default window
    //     (paper: HDDM/DDM process ~20x more points per second).
    val classNs = byMethod("ClaSS").find(_.d == 2000).get.nsPerPoint
    for (m <- Seq("DDM", "HDDM")) {
      val ns = byMethod(m).head.nsPerPoint
      assert(ns * 10 < classNs, s"$m ns/point $ns vs ClaSS $classNs")
    }

    // (c) Every method sustains at least 1k points/second — the paper's
    //     real-time bar for ClaSS — with large headroom for the cheap ones.
    rows.foreach(r => assert(r.nsPerPoint < 1e6, s"${r.method} too slow: ${r.nsPerPoint}"))
  }
}

/** Empirical per-point update cost of each method — the measured counterpart
  * of Table 2's published complexity classes. Measurements are single-
  * threaded (streaming updates are inherently sequential) over a fixed
  * regime-switching signal, timed only in steady state (after window fill).
  */
object Table2Bench {

  /** Published update complexity per method, from Table 2 of the paper. */
  val Published: Map[String, String] = Map(
    "BOCD" -> "O(n)", "FLOSS" -> "O(d log d)", "ClaSS" -> "O(d)",
    "ChangeFinder" -> "O(c^2)", "Window" -> "O(c)", "NEWMA" -> "O(c)",
    "ADWIN" -> "O(log c)", "DDM" -> "O(1)", "HDDM" -> "O(1)")

  /** Whether a method's cost scales with the sliding window size `d`. */
  val WindowScaled: Set[String] = Set("ClaSS", "FLOSS")

  /** A regime-switching probe signal (sine/square alternating every 1500
    * points) so detection code paths are exercised, not just buffering.
    */
  def probeSignal(n: Int, seed: Long): Array[Double] = {
    val rng = new Rng(seed)
    Array.tabulate(n) { i =>
      val seg = i / 1500
      val p = 20 + 10 * (seg % 3)
      val base =
        if (seg % 2 == 0) math.sin(2 * math.Pi * i / p)
        else 1.8 * math.signum(math.sin(2 * math.Pi * i / p))
      base + 0.1 * rng.nextGaussian()
    }
  }

  /** One measurement row. */
  final case class ProbeRow(method: String, published: String, d: Int,
                            points: Int, nsPerPoint: Double)

  /** Measure the steady-state per-point cost of `method` at window size `d`.
    *
    * @param steadyPoints points timed after the warm-up prefix
    */
  def measure(method: String, d: Int, steadyPoints: Int = 4000, seed: Long = 3): ProbeRow = {
    val warm = d + 1200
    val xs = probeSignal(warm + steadyPoints, seed)
    val seg = Sweep.createMethod(method, d, widthHint = 25, seed = seed)
    var i = 0
    while (i < warm) { seg.update(xs(i)); i += 1 }
    val t0 = System.nanoTime()
    while (i < xs.length) { seg.update(xs(i)); i += 1 }
    val elapsed = System.nanoTime() - t0
    ProbeRow(method, Published(method), d, steadyPoints, elapsed.toDouble / steadyPoints)
  }

  /** The full Table 2 sweep: window-scaled methods across `dValues`, the
    * rest at the default window d = 2000.
    */
  def sweep(dValues: Seq[Int]): Seq[ProbeRow] = {
    val windowed = for {
      m <- Sweep.AllMethods if WindowScaled(m)
      d <- dValues
    } yield measure(m, d)
    val flat = for {
      m <- Sweep.AllMethods if !WindowScaled(m)
    } yield measure(m, 2000)
    windowed ++ flat
  }
}
