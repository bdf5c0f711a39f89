package repro.core

import repro.SparkSpec
import repro.data.SyntheticCorpus

class SussSpec extends SparkSpec {

  test("learns a width in the vicinity of the period on a clean sine") {
    for (period <- Seq(20, 40, 80)) {
      val ts = Reference.Signals.noisySine(1000, period, 0.0, 1)
      val w = Suss.learnWidth(ts)
      assert(w >= period / 2 && w <= 4 * period, s"period=$period learned w=$w")
    }
  }

  test("is robust to moderate noise") {
    val ts = Reference.Signals.noisySine(1000, 40, 0.3, 2)
    val w = Suss.learnWidth(ts)
    assert(w >= 15 && w <= 160, s"learned w=$w")
  }

  test("respects the lower bound") {
    val ts = Reference.Signals.gaussian(600, 3)
    assert(Suss.learnWidth(ts) >= Suss.LowerBound)
  }

  test("respects maxWidth") {
    val ts = Reference.Signals.noisySine(1000, 200, 0.0, 4)
    assert(Suss.learnWidth(ts, maxWidth = 50) <= 50)
  }

  test("constant signal returns the lower bound") {
    val ts = Array.fill(500)(1.5)
    assert(Suss.learnWidth(ts) == 10)
  }

  test("deterministic for identical input") {
    val ts = Reference.Signals.noisySine(800, 30, 0.1, 5)
    assert(Suss.learnWidth(ts) == Suss.learnWidth(ts))
  }

  test("rejects too-short warm-up windows") {
    intercept[IllegalArgumentException] {
      Suss.learnWidth(Array.fill(30)(0.0))
    }
  }

  test("learned width is positive and bounded for assorted signals") {
    for (seed <- 1 to 10) {
      val ts = Reference.Signals.twoRegimes(900, 450, 25, 60, 0.2, seed.toLong)
      val w = Suss.learnWidth(ts, maxWidth = 100)
      assert(w >= 10 && w <= 100, s"seed=$seed w=$w")
    }
  }

  test("golden widths on fixed corpus warm-ups") {
    // The first series of each dataset of one corpus, cut to ClaSS's warm-up.
    val cfg = ClaSSConfig()
    val golden = Seq("TSSB" -> 20, "UTSA" -> 40, "mHealth" -> 50, "ArrDB" -> 42,
      "VEDB" -> 40, "PAMAP" -> 38, "SleepDB" -> 58, "WESAD" -> 32)
    val specs = SyntheticCorpus.specs(1)
    golden.foreach { case (dataset, want) =>
      val spec = specs.find(_.dataset == dataset).get
      val warmup = SyntheticCorpus.generate(spec).values.take(cfg.effectiveWarmup)
      assert(Suss.learnWidth(warmup, maxWidth = cfg.maxWidth) == want, dataset)
    }
  }
}
