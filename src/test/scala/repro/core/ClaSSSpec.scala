package repro.core

import repro.SparkSpec
import repro.data.SyntheticCorpus

class ClaSSSpec extends SparkSpec {

  private def run(cfg: ClaSSConfig, xs: Array[Double]): Vector[Long] =
    StreamSegmenter.segmentSeries(new ClaSS(cfg), xs)

  /** Each reported CP with the index of the point whose update reported it. */
  private def detections(c: ClaSS, xs: Array[Double]): Vector[(Long, Int)] =
    xs.indices.flatMap(i => c.update(xs(i)).map(cp => (cp, i))).toVector

  /** Two fixed benchmark-tier TSSB series with three segments each. */
  private lazy val tssb: Seq[Array[Double]] =
    SyntheticCorpus.specs(42)
      .filter(s => s.dataset == "TSSB" && s.nSegments >= 3 && s.length <= 4000)
      .take(2).map(SyntheticCorpus.generate(_).values)

  /** Same number of CPs, each within 45 points (a tenth of the corpus'
    * minimum segment) of its counterpart.
    */
  private def closeTo(got: Vector[(Long, Int)], clean: Vector[(Long, Int)]): Boolean =
    got.size == clean.size && got.zip(clean).forall { case (a, b) => math.abs(a._1 - b._1) <= 45 }

  test("detects a clear shape change close to the true boundary") {
    val xs = Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.05, 41)
    val cps = run(ClaSSConfig(d = 500), xs)
    assert(cps.nonEmpty, "no change point detected")
    val nearest = cps.minBy(cp => math.abs(cp - 2000))
    assert(math.abs(nearest - 2000) <= 250, s"nearest CP $nearest")
    assert(cps.size <= 3, s"too many CPs: $cps")
  }

  test("detects multiple segments in a three-regime stream") {
    val rng = new Rng(42)
    val xs = Array.tabulate(4500) { i =>
      val v =
        if (i < 1500) math.sin(2 * math.Pi * i / 20.0)
        else if (i < 3000) 2.0 * math.signum(math.sin(2 * math.Pi * i / 55.0))
        else 1.5 * (2.0 * ((i % 33) / 33.0) - 1.0) // sawtooth period 33
      v + 0.05 * rng.nextGaussian()
    }
    val cps = run(ClaSSConfig(d = 500), xs)
    assert(cps.size >= 2, s"found only $cps")
    assert(cps.exists(cp => math.abs(cp - 1500) <= 300), s"missed 1500: $cps")
    assert(cps.exists(cp => math.abs(cp - 3000) <= 300), s"missed 3000: $cps")
  }

  test("stays silent on a homogeneous noisy sine") {
    val xs = Reference.Signals.noisySine(4000, 30, 0.2, 43)
    assert(run(ClaSSConfig(d = 500), xs).isEmpty)
  }

  test("stays silent on a clean sine (degenerate ties)") {
    val xs = Array.tabulate(3000)(i => math.sin(2 * math.Pi * i / 25.0))
    assert(run(ClaSSConfig(d = 500), xs).isEmpty)
  }

  test("stays silent on white noise") {
    val xs = Reference.Signals.gaussian(4000, 44)
    assert(run(ClaSSConfig(d = 500), xs).isEmpty)
  }

  test("deterministic: same seed and data give the same segmentation") {
    val xs = Reference.Signals.twoRegimes(3500, 1700, 18, 48, 0.1, 45)
    val a = run(ClaSSConfig(d = 500, seed = 3), xs)
    val b = run(ClaSSConfig(d = 500, seed = 3), xs)
    assert(a == b)
  }

  test("reported positions are strictly increasing and in range") {
    val rng = new Rng(46)
    val xs = Array.tabulate(6000) { i =>
      val seg = i / 1200
      val p = 18 + 12 * (seg % 3)
      (if (seg % 2 == 0) math.sin(2 * math.Pi * i / p)
       else math.signum(math.sin(2 * math.Pi * i / p)) * 1.8) + 0.08 * rng.nextGaussian()
    }
    // Raw detections, with the index of the point that reported each.
    val got = detections(new ClaSS(ClaSSConfig(d = 600)), xs)
    assert(got.nonEmpty)
    val cps = got.map(_._1)
    assert(cps.zip(cps.drop(1)).forall { case (a, b) => a < b }, s"not strictly increasing: $cps")
    assert(cps.forall(cp => cp > 0 && cp < xs.length), s"out of range: $cps")
    assert(got.forall { case (cp, at) => at >= cp }, s"reported before its position: $got")
  }

  test("learns a plausible width from the warm-up") {
    val xs = Reference.Signals.noisySine(2500, 30, 0.1, 47)
    val cls = new ClaSS(ClaSSConfig(d = 500))
    xs.foreach(cls.update)
    assert(cls.width >= 10 && cls.width <= 50, s"width ${cls.width}") // d/10 cap
  }

  test("series shorter than the warm-up produce no change points") {
    val xs = Reference.Signals.twoRegimes(400, 200, 20, 50, 0.05, 50)
    assert(run(ClaSSConfig(d = 500), xs).isEmpty)
  }

  test("a weaker significance level reports at least as many CPs") {
    val xs = Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.15, 51)
    val strict = run(ClaSSConfig(d = 500, significance = 1e-80), xs)
    val loose = run(ClaSSConfig(d = 500, significance = 1e-20), xs)
    assert(loose.size >= strict.size)
  }

  test("accuracy score function also finds the change") {
    val xs = Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.05, 52)
    val cps = run(ClaSSConfig(d = 500, scoreFunction = ScoreFunction.Accuracy), xs)
    assert(cps.exists(cp => math.abs(cp - 2000) <= 300), s"cps=$cps")
  }

  test("variable (full) sample size also finds the change") {
    val xs = Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.05, 53)
    val cps = run(ClaSSConfig(d = 500, sampleSize = 0), xs)
    assert(cps.exists(cp => math.abs(cp - 2000) <= 300), s"cps=$cps")
  }

  test("config validation rejects bad inputs") {
    intercept[IllegalArgumentException] { ClaSSConfig(d = 100) }
    intercept[IllegalArgumentException] { ClaSSConfig(scoreFunction = "nope") }
  }

  test("observed counts every ingested point") {
    val cls = new ClaSS(ClaSSConfig(d = 500))
    val xs = Reference.Signals.noisySine(1200, 30, 0.1, 54)
    xs.foreach(cls.update)
    assert(cls.observed == 1200)
  }

  test("golden CPs and detection indices on fixed corpus series") {
    val golden = Seq(
      Vector(490L -> 999, 1028L -> 1181, 2036L -> 2180),
      Vector(492L -> 999, 1039L -> 1215, 1582L -> 1758))
    tssb.zip(golden).foreach { case (xs, want) =>
      assert(detections(new ClaSS(ClaSSConfig()), xs) == want)
    }
    // Long and noisy, w = 50; its first CP is reported while the warm-up replays.
    val mHealth = SyntheticCorpus.generate(SyntheticCorpus.specs(1).filter(_.dataset == "mHealth").head)
    val c = new ClaSS(ClaSSConfig())
    val got = detections(c, mHealth.values)
    assert(c.width == 50)
    assert(got.map(_._1) == Vector[Long](704, 2024, 2622, 3322, 3951, 4596, 5360, 6182, 6987))
    assert(got.map(_._2) == Vector(999, 2283, 3452, 3522, 4203, 4796, 5560, 6382, 7188))
  }

  test("change points are invariant under a·x + b, offsets up to 1e8 included") {
    tssb.foreach { xs =>
      val clean = detections(new ClaSS(ClaSSConfig()), xs)
      for (a <- Seq(0.5, 3.0, -2.0); b <- Seq(0.0, -7.0, 1e6, 1e8)) {
        val got = detections(new ClaSS(ClaSSConfig()), xs.map(v => a * v + b))
        assert(got == clean, s"${a}x + $b: $got vs clean $clean")
      }
    }
  }

  test("positions past 2^31 points keep their value") {
    // The window's first point passes 2^31 at point 5,000 of this 7.5k-8.5k
    // point series; its last three CPs come after that.
    val start = (1L << 31) - 3000
    val xs = SyntheticCorpus.generate(SyntheticCorpus.specs(1).filter(_.dataset == "mHealth").head).values
    val clean = detections(new ClaSS(ClaSSConfig()), xs)
    val c = new ClaSS(ClaSSConfig(), start)
    val got = detections(c, xs)
    assert(got == clean.map { case (cp, at) => (cp + start, at) })
    assert(c.observed == start + xs.length)
  }

  test("a kryo round trip mid-stream keeps the segmentation and carries only state") {
    // Spark's KryoSerializer, the serialiser behind the operator's Encoders.kryo state.
    val kryo = new org.apache.spark.serializer.KryoSerializer(new org.apache.spark.SparkConf(false)).newInstance()
    val mHealth = SyntheticCorpus.generate(SyntheticCorpus.specs(1).filter(_.dataset == "mHealth").head).values
    // mHealth reports its first two CPs at points 999 and 2283: the cuts right
    // after them rebuild the scorer's split counts from a scope that starts
    // inside the window. In the two-regime stream nothing is reported before
    // its change at 2000, so at point 1500 the scope is clamped to the window
    // start.
    val cases = Seq(
      (ClaSSConfig(), mHealth, Set(500, 1000, 2284, 2500, 5000), 9),
      (ClaSSConfig(d = 500), Reference.Signals.twoRegimes(4000, 2000, 20, 50, 0.05, 41), Set(1500), 1))
    for ((cfg, xs, cuts, cpCount) <- cases) {
      var c = new ClaSS(cfg)
      val got = xs.indices.flatMap { i =>
        if (cuts(i)) {
          val bytes = kryo.serialize(c)
          if (c.width > 0) {
            // The window, cov and the k-NN rows (positions and correlations), plus
            // a little for the counters, the RNG and the config; no scratch.
            val rows = c.cfg.d - c.width + 1
            val bound = 8L * c.cfg.d + 8L * rows + 12L * c.cfg.k * rows + 1024
            assert(bytes.remaining() < bound, s"${bytes.remaining()} bytes at point $i")
          }
          c = kryo.deserialize[ClaSS](bytes)
        }
        c.update(xs(i)).map(cp => (cp, i))
      }.toVector
      assert(got == detections(new ClaSS(cfg), xs))
      assert(got.size == cpCount)
      // Where each cut falls: the last CP reported before it against the window start.
      val scopes = cuts.toSeq.sorted.map(i => (got.filter(_._2 < i).lastOption.fold(0L)(_._1), math.max(0, i - cfg.d)))
      if (cpCount == 9) {
        assert(got.take(2).map(_._2 + 1) == Vector(1000, 2284))
        assert(scopes(1)._1 > scopes(1)._2 && scopes(2)._1 > scopes(2)._2, s"scopes $scopes")
      } else assert(scopes.forall { case (cp, ws) => cp < ws }, s"scopes $scopes")
    }
  }

  test("a non-finite reading is replaced by the last finite one and counted") {
    tssb.foreach { xs =>
      val clean = detections(new ClaSS(ClaSSConfig()), xs)
      for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
        val c = new ClaSS(ClaSSConfig())
        val got = detections(c, xs.updated(300, bad))
        assert(closeTo(got, clean), s"$bad at 300: $got vs clean $clean")
        assert(c.missingValues == 1)
        assert(c.observed == xs.length)
      }
    }
  }

  test("non-finite readings before any finite one count as 0.0") {
    val xs = Reference.Signals.twoRegimes(3000, 1500, 20, 50, 0.05, 55)
    val a = new ClaSS(ClaSSConfig(d = 500))
    val b = new ClaSS(ClaSSConfig(d = 500))
    val got = detections(a, xs.updated(0, Double.NaN).updated(1, Double.NegativeInfinity))
    val want = detections(b, xs.updated(0, 0.0).updated(1, 0.0))
    assert(want.nonEmpty)
    assert(got == want)
    assert(a.missingValues == 2 && b.missingValues == 0)
  }
}
