package repro.core

/** Common contract for every streaming segmenter in this reproduction —
  * ClaSS and all eight competitors.
  *
  * A segmenter consumes one observation at a time and may emit the position of
  * a newly detected change point: the 0-based absolute stream index of the
  * first observation of the new segment. Positions must be strictly
  * increasing; detection may (and usually does) lag the reported position.
  */
trait StreamSegmenter extends Serializable {

  /** Ingest one observation; returns a change-point position if one is
    * detected at this step.
    */
  def update(x: Double): Option[Long]
}

object StreamSegmenter {

  /** Offline driver: run a segmenter over a finite series and collect its
    * change points in the order it reported them. By the contract above they
    * strictly increase; nothing here repairs a segmenter that breaks it.
    */
  def segmentSeries(segmenter: StreamSegmenter, xs: Array[Double]): Vector[Long] = {
    val out = Vector.newBuilder[Long]
    var i = 0
    while (i < xs.length) {
      segmenter.update(xs(i)).foreach(out += _)
      i += 1
    }
    out.result()
  }
}
