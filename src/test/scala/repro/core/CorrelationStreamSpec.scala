package repro.core

import repro.SparkSpec

class CorrelationStreamSpec extends SparkSpec {

  test("every correlation matches the reference after every point, flat stretches included") {
    // Growth (t < d), the fill (t = d) and eviction (t > d); the flat
    // stretches at the start and in the middle give rows with inv = 0, on
    // both sides of each correlation.
    val d = 60; val w = 8
    val noise = Reference.Signals.noisySine(300, 13, 0.1, 16)
    val xs = Array.tabulate(300)(t => if (t < 12) 1.5 else if (t >= 120 && t < 150) -0.5 else noise(t))
    val s = new CorrelationStream(d, w)
    var flatPairs = 0
    xs.indices.foreach { t =>
      s.update(xs(t))
      assert(s.length == math.min(t + 1, d))
      assert(s.hasCorrelations == (t + 1 >= w), s"t=${t + 1}")
      if (s.hasCorrelations) {
        val e = s.newestIndex
        val a = s.windowStart.toInt
        (0 to e).foreach { i =>
          val want = Reference.corrAt(xs, a + i, a + e, w)
          if (want == 0.0) flatPairs += 1
          assert(math.abs(s.correlations(i) - want) < 1e-12,
            s"t=${t + 1} i=$i: ${s.correlations(i)} vs $want")
        }
      }
    }
    assert(flatPairs > 1000, s"only $flatPairs pairs with a flat subsequence")
  }

  test("the newest row's correlations stay within a drift bound over a long stream") {
    // Sine + noise + random walk; every co-moment has been advanced along
    // its diagonal since the window filled. Largest errors measured here:
    // 6.0e-13 at offset 0, 2.7e-8 at +1e6, 8.7e-6 at +1e8. The uncentred
    // dot products this replaced gave 7.4e-11, 0.41 and 2.0.
    val n = 1000000; val d = 100; val w = 20
    val rng = new Rng(13)
    var walk = 0.0
    val xs = Array.tabulate(n) { i =>
      walk += 0.05 * rng.nextGaussian()
      math.sin(2 * math.Pi * i / 37) + 0.3 * rng.nextGaussian() + walk
    }
    for ((off, bound) <- Seq(0.0 -> 1e-11, 1e6 -> 1e-6, 1e8 -> 1e-4)) {
      val ys = xs.map(_ + off)
      val s = new CorrelationStream(d, w)
      ys.foreach(s.update)
      val e = s.newestIndex
      val a = s.windowStart.toInt
      val err = (0 to e).map(i => math.abs(s.correlations(i) - Reference.corrAt(ys, a + i, a + e, w))).max
      info(f"offset $off%.0e: largest error $err%.2e")
      assert(err < bound, s"offset $off: error $err")
    }
  }

  test("a kryo round trip keeps the correlations bit-identical") {
    val kryo = new org.apache.spark.serializer.KryoSerializer(new org.apache.spark.SparkConf(false)).newInstance()
    val d = 150; val w = 10
    val xs = Reference.Signals.twoRegimes(500, 250, 25, 40, 0.1, 14).map(_ + 1e3)
    def bits(s: CorrelationStream): Seq[Long] =
      Seq(s.windowStart, s.length.toLong) ++
        (if (s.hasCorrelations) (0 to s.newestIndex).map(i => java.lang.Double.doubleToRawLongBits(s.correlations(i)))
         else Seq.empty)
    // Before the first subsequence, while the window grows, as it fills, after eviction.
    for (cut <- Seq(5, 80, 150, 300)) {
      val a = new CorrelationStream(d, w)
      xs.take(cut).foreach(a.update)
      val b = kryo.deserialize[CorrelationStream](kryo.serialize(a))
      xs.indices.drop(cut).foreach { t =>
        a.update(xs(t)); b.update(xs(t))
        assert(bits(a) == bits(b), s"cut $cut: differs after point $t")
      }
    }
  }

  test("parameter validation") {
    intercept[IllegalArgumentException] { new CorrelationStream(100, 2) } // w too small
    intercept[IllegalArgumentException] { new CorrelationStream(9, 10) } // window shorter than w
    intercept[IllegalArgumentException] { new CorrelationStream(10, 10) } // one row: never shifts
  }
}
