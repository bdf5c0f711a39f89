package repro

package object baselines {

  /** Minimum distance between consecutive CPs of ADWIN, BOCD, ChangeFinder,
    * DDM, HDDM and NEWMA: their statistics stay out of range for a while
    * after a change, and would report it again.
    */
  private[baselines] val MinCpGap = 250

  /** The last CP before the first one: every gap check passes, and
    * `tau - FarPast` cannot overflow.
    */
  private[baselines] val FarPast = -1000000000L
}
