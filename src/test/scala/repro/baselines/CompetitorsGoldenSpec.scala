package repro.baselines

import repro.SparkSpec
import repro.core.StreamSegmenter
import repro.data.{SeriesSpec, SyntheticCorpus}
import repro.eval.Sweep

/** Exact CPs of the eight competitors as Table 3 builds them
  * (`Sweep.createMethod` at d = 2000): any change to a competitor's settings
  * or update rule that moves one of its CPs fails here.
  */
class CompetitorsGoldenSpec extends SparkSpec {

  /** The two fixed TSSB series of `ClaSSSpec`'s golden test, then one
    * archive-tier series (no BOCD there, as in `Sweep.run`).
    */
  private val series: Seq[SeriesSpec] =
    SyntheticCorpus.specs(42)
      .filter(s => s.dataset == "TSSB" && s.nSegments >= 3 && s.length <= 4000).take(2) :+
      SyntheticCorpus.specs(1).filter(_.dataset == "mHealth").head

  private val golden: Seq[Map[String, Vector[Long]]] = Seq(
    Map(
      "FLOSS" -> Vector[Long](494, 1010, 1487, 2058),
      "Window" -> Vector[Long](),
      "ChangeFinder" -> Vector[Long](1545),
      "NEWMA" -> Vector[Long](1562),
      "BOCD" -> Vector[Long](1222, 1487),
      "DDM" -> Vector[Long](1631, 1948, 2208),
      "ADWIN" -> Vector[Long](36, 300, 1540, 1800),
      "HDDM" -> Vector[Long](1623, 1944)),
    Map(
      "FLOSS" -> Vector[Long](533, 634, 1032, 1133, 1592, 1693),
      "Window" -> Vector[Long](530),
      "ChangeFinder" -> Vector[Long](1052),
      "NEWMA" -> Vector[Long](1089),
      "BOCD" -> Vector[Long](357, 534, 911, 1235, 1511, 1785, 2045),
      "DDM" -> Vector[Long](),
      "ADWIN" -> Vector[Long](1064, 1560),
      "HDDM" -> Vector[Long]()),
    Map(
      "FLOSS" -> Vector[Long](634, 820, 4594, 4783, 5198, 5397, 5598, 6122, 6340, 6602, 6939),
      "Window" -> Vector[Long](4230),
      "ChangeFinder" -> Vector[Long](446, 1110, 1976, 3328, 4230, 4619, 6917),
      "NEWMA" -> Vector[Long](1997, 3345, 4193, 5391, 6262, 7667, 8025),
      "DDM" -> Vector[Long](),
      "ADWIN" -> Vector[Long](640, 1408, 1960, 2672, 2958, 3310, 3568, 3834, 4118, 4364,
        5708, 6174, 6422, 7158, 7806, 8084),
      "HDDM" -> Vector[Long]()))

  test("golden CPs of the eight competitors on fixed corpus series") {
    assert(series.map(_.tier) == Seq(SyntheticCorpus.Benchmark, SyntheticCorpus.Benchmark,
      SyntheticCorpus.Archive))
    series.zip(golden).foreach { case (spec, want) =>
      val xs = SyntheticCorpus.generate(spec).values
      val got = want.keys.map { m =>
        m -> StreamSegmenter.segmentSeries(Sweep.createMethod(m, d = 2000, spec.widthHint), xs)
      }.toMap
      assert(got == want, s"${spec.dataset}-${spec.seriesId}")
    }
    assert(golden.flatMap(_.keySet).toSet == Sweep.AllMethods.filterNot(_ == "ClaSS").toSet)
  }
}
