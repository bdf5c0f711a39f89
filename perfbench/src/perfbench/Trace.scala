package perfbench

import java.lang.instrument.{ClassFileTransformer, Instrumentation}
import java.security.ProtectionDomain
import java.util.concurrent.ConcurrentLinkedQueue
import javassist.{ClassPool, CtNewMethod, LoaderClassPath}
import javassist.expr.{ExprEditor, MethodCall}

/** In-memory spans at the paper's layer boundaries of ClaSS.
  *
  * [[TraceAgent]] wraps the body of `ClaSS.update` and, inside `ClaSS`, each
  * call into `StreamingKnn.update`, `ClaspScorer.score`,
  * `Wilcoxon.significanceP` and `Suss.learnWidth`; nothing else is timed, so
  * the label replay and any other helper shows as `ClaSS.update` self time.
  * The agent is loaded only for traced runs. Each thread records into its
  * own buffer; buffers are summed, and spans written, once the run ends.
  */
object Trace {
  final val ClassUpdate = 0
  final val KnnUpdate = 1
  final val Sweep = 2
  final val Wilcoxon = 3
  final val Suss = 4
  val Names: Array[String] = Array(
    "ClaSS.update", "StreamingKnn.update", "ClaspScorer.score", "Wilcoxon.significanceP",
    "Suss.learnWidth")
  private final val N = Names.length
  /** Spans kept per thread; counts and totals stay exact beyond it. */
  private final val SpanCap = 200000

  /** Recording switch: off, the inserted code reads one field per call. */
  @volatile var on = false
  /** ClaSS's `minScore`, for counting sweeps whose best split passes it. */
  @volatile var minScore: Double = Double.PositiveInfinity
  /** Boundaries the agent instrumented (Names indices) and any failure. */
  val instrumented = new java.util.concurrent.ConcurrentSkipListSet[Integer]()
  @volatile var agentError: String = ""

  final class Buf(val thread: String) {
    val count = new Array[Long](N)
    val totalNs = new Array[Long](N)
    var sweepRows = 0L
    var sweepsFullScope = 0L
    var sweepsPastMinScore = 0L
    // the open ClaSS.update span, parent of the children recorded meanwhile
    var openSpan = -1
    var spans = 0
    val spanLayer = new Array[Byte](SpanCap)
    val spanStart = new Array[Long](SpanCap)
    val spanEnd = new Array[Long](SpanCap)
    val spanParent = new Array[Int](SpanCap)

    def clear(): Unit = {
      java.util.Arrays.fill(count, 0L); java.util.Arrays.fill(totalNs, 0L)
      sweepRows = 0; sweepsFullScope = 0; sweepsPastMinScore = 0; openSpan = -1; spans = 0
    }
  }

  private val bufs = new ConcurrentLinkedQueue[Buf]()
  private val local = ThreadLocal.withInitial[Buf] { () =>
    val b = new Buf(Thread.currentThread().getName); bufs.add(b); b
  }

  def enter(layer: Int): Long = {
    if (!on) return 0L
    val t = System.nanoTime()
    if (layer == ClassUpdate) {
      val b = local.get()
      if (b.spans < SpanCap) {
        b.openSpan = b.spans
        b.spanStart(b.spans) = t // end and layer filled in at exit
        b.spanParent(b.spans) = -1
        b.spans += 1
      } else b.openSpan = -1
    }
    t
  }

  def exit(layer: Int, t0: Long): Unit = {
    if (t0 == 0L) return
    val t = System.nanoTime()
    val b = local.get()
    b.count(layer) += 1
    b.totalNs(layer) += t - t0
    if (layer == ClassUpdate) {
      if (b.openSpan >= 0) { b.spanLayer(b.openSpan) = ClassUpdate.toByte; b.spanEnd(b.openSpan) = t }
      b.openSpan = -1
    } else if (b.spans < SpanCap) {
      val i = b.spans
      b.spanLayer(i) = layer.toByte; b.spanStart(i) = t0; b.spanEnd(i) = t
      b.spanParent(i) = b.openSpan
      b.spans += 1
    }
  }

  /** Exit of a `ClaspScorer.score` call: the size of its scope, the
    * window's row count, and its best split.
    */
  def sweep(t0: Long, rows: Int, windowRows: Int, bestZeroCount: Int, bestScore: Double): Unit = {
    if (t0 == 0L) return
    exit(Sweep, t0)
    val b = local.get()
    b.sweepRows += rows
    if (rows == windowRows) b.sweepsFullScope += 1
    if (bestZeroCount >= 0 && bestScore >= minScore) b.sweepsPastMinScore += 1
  }

  def reset(): Unit = bufs.forEach(_.clear())

  final case class Totals(count: Array[Long], totalNs: Array[Long], sweepRows: Long,
                          sweepsFullScope: Long, sweepsPastMinScore: Long, spans: Long) {
    def meanNs(layer: Int): Double = if (count(layer) == 0) 0.0 else totalNs(layer).toDouble / count(layer)
    /** ClaSS.update time not covered by its timed children, per update. */
    def classSelfNs: Double =
      if (count(ClassUpdate) == 0) 0.0
      else (totalNs(ClassUpdate) - (1 until N).map(totalNs(_)).sum).toDouble / count(ClassUpdate)
  }

  /** Sum of every thread's buffer; call only while no traced code runs. */
  def totals(): Totals = {
    val c = new Array[Long](N); val t = new Array[Long](N)
    var rows, full, past, spans = 0L
    bufs.forEach { b =>
      var i = 0
      while (i < N) { c(i) += b.count(i); t(i) += b.totalNs(i); i += 1 }
      rows += b.sweepRows; full += b.sweepsFullScope; past += b.sweepsPastMinScore; spans += b.spans
    }
    Totals(c, t, rows, full, past, spans)
  }

  /** Write the recorded spans as TSV: thread, span, layer, start_ns, end_ns, parent. */
  def writeSpans(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = new java.io.PrintWriter(java.nio.file.Files.newBufferedWriter(path))
    try {
      w.println("thread\tspan\tlayer\tstart_ns\tend_ns\tparent")
      bufs.forEach { b =>
        var i = 0
        while (i < b.spans) {
          if (b.spanEnd(i) != 0L)
            w.println(s"${b.thread}\t$i\t${Names(b.spanLayer(i))}\t${b.spanStart(i)}\t${b.spanEnd(i)}\t${b.spanParent(i)}")
          i += 1
        }
      }
    } finally w.close()
  }
}

/** Java agent (traced runs only) that inserts the [[Trace]] calls into
  * `repro.core.ClaSS` as the class loads. A boundary whose call cannot be
  * matched is left untimed and reported missing by the run.
  */
object TraceAgent {
  private val Target = "repro/core/ClaSS"
  private val T = "perfbench.Trace"

  def premain(args: String, inst: Instrumentation): Unit =
    inst.addTransformer(new ClassFileTransformer {
      override def transform(loader: ClassLoader, name: String, cls: Class[_],
                             pd: ProtectionDomain, bytes: Array[Byte]): Array[Byte] =
        if (name != Target) null
        else try instrument(loader, bytes) catch {
          case e: Throwable => Trace.agentError = e.toString; null
        }
    })

  private def instrument(loader: ClassLoader, bytes: Array[Byte]): Array[Byte] = {
    val pool = new ClassPool(true)
    pool.appendClassPath(new LoaderClassPath(loader))
    val cc = pool.makeClass(new java.io.ByteArrayInputStream(bytes))
    // ClaSS.update: rename the original and add a timing wrapper under its name.
    cc.getDeclaredMethods.filter(_.getName == "update").foreach { m =>
      val wrapper = CtNewMethod.copy(m, cc, null)
      m.setName("update$untraced")
      wrapper.setBody(s"{ long t0 = $T.enter(${Trace.ClassUpdate}); " +
        s"Object r = update$$untraced($$$$); $T.exit(${Trace.ClassUpdate}, t0); return ($$r) r; }")
      cc.addMethod(wrapper)
      Trace.instrumented.add(Trace.ClassUpdate)
    }
    cc.instrument(new ExprEditor {
      override def edit(c: MethodCall): Unit = {
        val owner = c.getClassName.stripSuffix("$")
        val layer = (owner, c.getMethodName) match {
          case ("repro.core.StreamingKnn", "update") => Trace.KnnUpdate
          case ("repro.core.ClaspScorer", "score") => Trace.Sweep
          case ("repro.core.Wilcoxon", "significanceP") => Trace.Wilcoxon
          case ("repro.core.Suss", "learnWidth") => Trace.Suss
          case _ => return
        }
        val timed = s"{ long __t = $T.enter($layer); $$_ = $$proceed($$$$); %s }"
        val plain = timed.format(s"$T.exit($layer, __t);")
        if (layer == Trace.Sweep) {
          // score(knn, scopeStart, ...) returns the best split of the scope
          val rich = timed.format(
            s"$T.sweep(__t, $$_.numSubseq(), $$1.numRows(), $$_.bestZeroCount(), $$_.bestScore());")
          try c.replace(rich) catch {
            case e: javassist.CannotCompileException => Trace.agentError = e.toString; c.replace(plain)
          }
        } else c.replace(plain)
        Trace.instrumented.add(layer)
      }
    })
    val out = cc.toBytecode
    cc.detach()
    out
  }
}
