package repro.eval

import repro.data.SyntheticCorpus

/** Prints every change point that the nine methods report on the synthetic
  * corpus, for a bit-identity check of a refactor: run it before and after
  * the change and `diff` the outputs.
  *
  * {{{
  * sbt "Test/runMain repro.eval.CpDump 42" | sed -n 's/^\[info\] \([A-Za-z]*-[0-9]* \)/\1/p' > cps.txt
  * }}}
  * (sbt logs the forked program's output with an `[info] ` prefix; the `sed`
  * keeps the CP lines only.)
  *
  * For each seed argument, every series of `SyntheticCorpus.specs(seed)` runs
  * through every method of [[Sweep.AllMethods]], or only the one named by
  * `--method <name>` (for instance `CpDump --method ClaSS 42`), at Table 3's settings
  * (d = 2000; BOCD on the benchmark tier only, [[Sweep.runsOn]]). One line
  * per (series, method): `<dataset>-<seriesId> <method> <position>@<index>,…`,
  * where `index` is the stream index of the point whose update reported the
  * CP. `specs(42)` is about 0.98M points; one seed takes a minute or two for
  * all nine methods. A filtered dump prints the same lines as the full one,
  * less the other methods'.
  */
object CpDump {
  private val Usage = "usage: CpDump [--method <name>] <seed> [<seed> …]"

  def main(args: Array[String]): Unit = {
    val (methods, seeds) = args.indexOf("--method") match {
      case -1 => (Sweep.AllMethods, args.toSeq)
      case i =>
        require(i + 1 < args.length, Usage)
        val name = args(i + 1)
        require(Sweep.AllMethods.contains(name), s"unknown method $name; one of ${Sweep.AllMethods.mkString(", ")}")
        (Seq(name), args.toSeq.patch(i, Nil, 2))
    }
    require(seeds.nonEmpty, Usage)
    for {
      seed <- seeds.map(_.toLong)
      spec <- SyntheticCorpus.specs(seed)
    } {
      val xs = SyntheticCorpus.generate(spec).values
      for (m <- methods if Sweep.runsOn(m, spec)) {
        val seg = Sweep.createMethod(m, d = 2000, spec.widthHint)
        val cps = xs.indices.flatMap(i => seg.update(xs(i)).map(cp => s"$cp@$i"))
        println(s"${spec.dataset}-${spec.seriesId} $m ${cps.mkString(",")}")
      }
    }
  }
}
