package perfbench

import repro.core.{ClaSS, Reference, StreamingKnn}
import repro.eval.Covering

/** A reported change point: `position` starts the new segment, `detectedAt`
  * is the index of the point whose processing reported it.
  */
final case class Detection(position: Long, detectedAt: Long)

/** Output checks and quality metrics shared by the workloads. */
object Checks {
  /** Largest distance, in points, by which a fault probe's change point may
    * differ from the clean stream's (a tenth of the corpus' minimum segment).
    */
  val FaultTolerance = 45
  /** Floor of a workload's mean Covering: class-standalone measures 0.92 to
    * 0.95 over seeds 1 to 20, operator-one-stream (one stream per seed) 0.78
    * to 0.98 over seeds 1 to 80 (perfbench/README.md).
    */
  val CoveringFloor = 0.75

  /** In detection order, positions strictly increase inside (0, n); each
    * detection comes at or after its position and inside the stream.
    */
  def properties(r: Result, id: String, n: Long, ds: Seq[Detection]): Unit = {
    ds.zip(ds.drop(1)).foreach { case (a, b) =>
      r.check(a.position < b.position, s"$id: CPs not strictly increasing: ${a.position}, ${b.position}")
    }
    ds.foreach { d =>
      r.check(d.position > 0 && d.position < n, s"$id: CP ${d.position} outside (0, $n)")
      r.check(d.detectedAt >= d.position && d.detectedAt < n,
        s"$id: CP ${d.position} detected at ${d.detectedAt}")
    }
  }

  /** Mean Covering over streams, each scored on its first `len(s)` points
    * with the CPs reported by then.
    */
  def covering(streams: Seq[(Stream, Seq[Detection], Int)]): Double =
    Main.mean(streams.map { case (s, ds, len) =>
      Covering.covering(s.cps.filter(_ < len), ds.filter(_.detectedAt < len).map(_.position), len.toLong)
    })

  /** Median of detectedAt - position over the CPs reported within `len`. */
  def delay(streams: Seq[(Stream, Seq[Detection], Int)]): Double = {
    val ds = streams.flatMap { case (_, ds, len) => ds.filter(_.detectedAt < len) }
    if (ds.isEmpty) 0.0 else Main.median(ds.map(d => (d.detectedAt - d.position).toDouble))
  }

  def coveringFloor(r: Result, cov: Double): Unit =
    r.check(cov >= CoveringFloor, f"covering $cov%.3f below the floor $CoveringFloor")

  /** Fault probe: same number of CPs as the clean stream, each within
    * [[FaultTolerance]] points of its clean counterpart.
    */
  def matches(clean: Seq[Detection], probe: Seq[Detection]): Boolean =
    clean.size == probe.size &&
      clean.zip(probe).forall { case (a, b) => math.abs(a.position - b.position) <= FaultTolerance }

  /** Feed `xs` through a sequential ClaSS; the CPs it reports. */
  def sequential(xs: Array[Double], upTo: Int): (Vector[Detection], ClaSS) = {
    val c = new ClaSS(Inputs.Cfg)
    val out = Vector.newBuilder[Detection]
    var i = 0
    while (i < upTo) {
      c.update(xs(i)).foreach(cp => out += Detection(cp, i))
      i += 1
    }
    (out.result(), c)
  }

  /** StreamingKnn rows against the naive reference of the exactness tests,
    * at a few steps of one stream.
    */
  def knnExact(r: Result, s: Stream, w: Int, steps: Seq[Int]): Unit = {
    val cfg = Inputs.Cfg
    val knn = new StreamingKnn(cfg.d, w, cfg.k)
    var t = 0
    steps.sorted.foreach { target =>
      while (t < target) { knn.update(s.values(t)); t += 1 }
      val expected = Reference.expectedRows(s.values, t, cfg.d, w, cfg.k)
      r.check(knn.numRows == expected.size, s"${s.id} t=$t: ${knn.numRows} k-NN rows, reference ${expected.size}")
      for (i <- 0 until math.min(knn.numRows, expected.size); j <- 0 until cfg.k) {
        val got = knn.neighborCorr(i, j)
        val exp = expected(i)(j).corr
        r.check(math.abs(got - exp) < 1e-6, s"${s.id} t=$t row=$i nn=$j: corr $got, reference $exp")
      }
    }
  }

  private lazy val kryo =
    new org.apache.spark.serializer.KryoSerializer(new org.apache.spark.SparkConf(false)).newInstance()

  /** Kryo-serialised size of a segmenter, as the operator's state encoder stores it. */
  def kryoBytes(c: ClaSS): Long = kryo.serialize(c).remaining().toLong

  /** Median serialise + deserialise time of a segmenter, µs. */
  def kryoRoundtripUs(c: ClaSS, reps: Int): Double = Main.median((0 until reps).map { _ =>
    val t0 = System.nanoTime()
    val back = kryo.deserialize[ClaSS](kryo.serialize(c))
    val dt = (System.nanoTime() - t0) / 1e3
    require(back.observed == c.observed)
    dt
  })
}
