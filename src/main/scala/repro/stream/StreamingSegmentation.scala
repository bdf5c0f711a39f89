package repro.stream

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{ClaSS, ClaSSConfig}

/** One sensor observation on the stream.
  *
  * @param streamId partition key: one physical sensor stream
  * @param seq      per-stream sequence number (defines processing order
  *                 inside a micro-batch; streams are sampled at fixed rates,
  *                 so producers assign it naturally)
  * @param value    the measurement
  */
final case class SensorReading(streamId: String, seq: Long, value: Double)

/** A change point emitted by the operator.
  *
  * @param streamId    the stream the CP belongs to
  * @param position    0-based stream position where the new segment starts
  * @param detectedSeq sequence number of the observation whose processing
  *                    surfaced the CP (detection latency = detectedSeq - position)
  */
final case class DetectedChangePoint(streamId: String, position: Long, detectedSeq: Long)

/** The operator's state for one stream key.
  *
  * @param segmenter the stream's ClaSS instance
  * @param lastSeq   `seq` of the last reading fed to it
  * @param dropped   readings dropped because their `seq` was not above
  *                  `lastSeq` (producer retries and late readings)
  */
final case class StreamState(segmenter: ClaSS, lastSeq: Long, dropped: Long)

/** ClaSS as a Structured Streaming stateful window operator — the Spark
  * counterpart of the paper's Apache Flink operator (Section 4.4).
  *
  * Each stream key owns one ClaSS instance held in keyed group state
  * (kryo-encoded; every piece of ClaSS state is a plain serializable value,
  * including its RNG). Micro-batches deliver reading batches per key; rows
  * are replayed in sequence order through the segmenter and detected change
  * points are appended downstream. A reading whose `seq` is not above the
  * last one fed, a duplicate or a late reading, is dropped and counted, so
  * it cannot shift the positions of later CPs. Different keys segment
  * independently and in parallel — one STSS operator instance per stream,
  * exactly like a keyed Flink window operator.
  */
object StreamingSegmentation {

  private implicit val stateEncoder: Encoder[StreamState] = Encoders.kryo[StreamState]

  /** Wire the segmentation operator over a (streaming or batch) dataset of
    * readings. With a streaming source, run the query with Append output
    * mode.
    */
  def changePoints(readings: Dataset[SensorReading],
                   cfg: ClaSSConfig = ClaSSConfig()): Dataset[DetectedChangePoint] = {
    val spark = readings.sparkSession
    import spark.implicits._
    readings
      .groupByKey(_.streamId)
      .flatMapGroupsWithState[StreamState, DetectedChangePoint](
        OutputMode.Append(), GroupStateTimeout.NoTimeout)(
        (id: String, rows: Iterator[SensorReading], state: GroupState[StreamState]) => {
          val st = state.getOption.getOrElse(StreamState(new ClaSS(cfg), Long.MinValue, 0L))
          // Micro-batches do not guarantee intra-group order: restore it.
          val batch = rows.toArray.sortBy(_.seq)
          val out = Vector.newBuilder[DetectedChangePoint]
          var lastSeq = st.lastSeq
          var dropped = st.dropped
          batch.foreach { r =>
            if (r.seq <= lastSeq) dropped += 1
            else {
              lastSeq = r.seq
              st.segmenter.update(r.value).foreach { cp =>
                out += DetectedChangePoint(id, cp, r.seq)
              }
            }
          }
          state.update(StreamState(st.segmenter, lastSeq, dropped))
          out.result().iterator
        })
  }
}
