package repro.bench

import repro.SparkSpec
import repro.eval.ComplexityProbe

/** Table 2 — competitor specification: published update complexity next to
  * the measured per-point cost of this repo's implementations. Checks the
  * complexity *shape*: window-scaled methods grow with `d`, constant-time
  * methods stay flat and far cheaper.
  */
class Table2Bench extends SparkSpec {

  test("Table 2: published complexity vs measured per-point cost") {
    val dValues = Seq(500, 1000, 2000, 4000)
    // An untimed pass of every window-scaled method at every d, so that no
    // timed figure includes compiling the method's code.
    for (m <- ComplexityProbe.WindowScaled; d <- dValues)
      ComplexityProbe.measure(m, d, steadyPoints = 1000)
    val rows = ComplexityProbe.sweep(dValues)

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
