package repro.baselines

import org.scalatest.Assertions._
import repro.core.Rng

/** Signal and check shared by the CP gap tests. */
object Gaps {

  /** 6000 points of unit noise with a pulse of height 8 over `[1500, 1600)`,
    * `[3000, 3100)` and `[4500, 4600)`: each pulse is two changes 100 points
    * apart, closer than `MinCpGap`.
    */
  def pulses(seed: Long): Array[Double] = {
    val rng = new Rng(seed)
    Array.tabulate(6000)(i => (if (i >= 1500 && i % 1500 < 100) 8.0 else 0.0) + rng.nextGaussian())
  }

  /** At least two CPs, and consecutive CPs at least `gap` apart. */
  def assertSpaced(cps: Vector[Long], gap: Int): Unit = {
    assert(cps.size >= 2, s"cps=$cps")
    cps.zip(cps.drop(1)).foreach { case (a, b) => assert(b - a >= gap, s"gap ${b - a} in $cps") }
  }
}
