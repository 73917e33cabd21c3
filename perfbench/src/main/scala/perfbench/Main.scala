package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The benchmark's JVM entry point; `perfbench/run.py` builds and launches it.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
  * }}}
  *
  * The last line on stdout is the JSON result; everything before it is a
  * human-readable report.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean, scratch: Path)

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val opts =
      try Options(kv("workload"), kv("seed").toLong, kv("seconds").toInt, kv("trace") == "1",
                  Paths.get(kv.getOrElse("scratch", ".bench_build")))
      catch { case NonFatal(_) =>
        System.err.println("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]")
        sys.exit(2)
      }
    val workload = Workloads.byName(opts.workload).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val result = new Harness(workload, opts).run()
    println(result)
    System.out.flush()
    sys.exit(0) // Spark leaves non-daemon threads behind
  }
}

/** One measured op: its wall time (−1 if it threw), its outputs, the
  * statistics its probe gathered, the distance evaluations it made and
  * whether it was traced.
  */
final case class OpRun(op: Int, ns: Long, outs: Seq[Produced], stats: Map[String, Double], calls: Long,
                       traced: Boolean)

/** Runs one workload: set-up (several times), reference, one ledger op
  * and the gate's self-test, warm-up ops, then ops back to back for the
  * measured seconds, every one checked by the gate.
  */
final class Harness(w: Workload, o: Main.Options) {
  import Harness._

  private val startNs = System.nanoTime()
  private val env     = Env(o.scratch.toAbsolutePath, math.min(4, Runtime.getRuntime.availableProcessors))
  private var attempted, failed, nextOp = 0

  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def say(s: String): Unit = println(s"[${w.name}] $s")

  def run(): String = {
    var inst: Instance = null
    val setupS = mutable.ArrayBuffer.empty[Double]
    while (setupS.size < SetupReps || (setupS.sum < SetupBudgetS && setupS.size < MaxSetupReps)) {
      if (inst != null) inst.close()
      val t0 = System.nanoTime()
      inst = w.setup(o.seed, env)
      setupS += (System.nanoTime() - t0) / 1e9
    }
    try {
      val refS = seconds(inst.buildReference(env.threads))
      // The ledger op runs before the warm-up, so the JIT has seen the
      // counting metric and settled again before anything is timed.
      val counted  = runOp(inst, counting = true, split = o.trace, None)
      val selfTest = counted.outs.iterator.flatMap(Gate.corrupt).nextOption().flatMap(Gate.check)
      say(s"gate self-test: a core point moved to another cluster is " +
        selfTest.fold("NOT rejected")(r => s"rejected ($r)"))
      val cal     = inst.calibration(o.seed)
      val warmOps = warmUp(inst, cal)
      say(f"n = ${inst.n}; set-up ${setupS.map(s => f"$s%.3f").mkString("/")} s; reference $refS%.2f s; " +
        f"ledger op ${counted.ns / 1e9}%.2f s; $warmOps warm-up ops")
      val metrics =
        if (o.trace) traced(inst, counted)
        else untraced(inst, cal, median(setupS.toSeq), counted.calls.toDouble / inst.n)
      metrics.foreach { case (k, v, u) => say(f"$k%-26s $v%.6g $u") }
      say(s"failed_frac                ${if (attempted == 0) 0.0 else failed.toDouble / attempted} " +
        s"($failed of $attempted ops)")
      json(selfTest.isDefined && failed == 0, metrics)
    } finally inst.close()
  }

  /** End-to-end metrics: set-up time, median op cost in calibration units,
    * distance evaluations per point. Each op's cost is its time over the
    * mean of the calibration unit's time measured right before and right
    * after it. The median wall time of an op is printed too.
    */
  private def untraced(inst: Instance, cal: Calibration, setupS: Double,
                       distPerPoint: Double): Seq[(String, Double, String)] = {
    val unitNs = mutable.ArrayBuffer.empty[Double]
    val cost   = mutable.ArrayBuffer.empty[Double]
    var before = median(calibrate(cal, 0L))
    val runs = measure(1) {
      val r     = runOp(inst, counting = false, split = false, None)
      val after = calibrate(cal, math.max(0L, r.ns))
      unitNs ++= after
      if (r.ns >= 0) cost += r.ns / ((before + median(after)) / 2)
      before = median(after)
      r
    }
    val opNs = median(runs.map(_.ns.toDouble))
    val ns   = median(unitNs.toSeq)
    say(s"op times over ${runs.size} ops: ${runs.map(r => f"${r.ns / 1e9}%.3f").mkString(" ")} s")
    say(f"op_s_p50                   ${opNs / 1e9}%.6g s")
    say(f"calibration unit           ${ns / 1e9}%.6g s (median of ${unitNs.size} passes)")
    Seq(("setup_s", setupS, "s"),
        ("op_cost_p50", median(cost.toSeq), "cal"),
        ("dist_per_point", distPerPoint, "calls/point"))
  }

  /** Calibration passes after an op, for an eighth of the op's time and at
    * least two; nanoseconds per unit in each pass.
    */
  private def calibrate(cal: Calibration, opNs: Long): Seq[Double] = {
    val t0 = System.nanoTime()
    val ns = mutable.ArrayBuffer(cal.unitNs(), cal.unitNs())
    while (System.nanoTime() - t0 < opNs / 8) ns += cal.unitNs()
    ns.toSeq
  }

  /** Per-layer metrics: traced ops alternate with untraced ones, whose
    * difference is the tracing overhead. Call counts come from the ledger op,
    * which splits Algorithm 1 from the DBSCAN drivers the same way.
    */
  private def traced(inst: Instance, counted: OpRun): Seq[(String, Double, String)] = {
    val tracer = new Tracer
    var flip   = false
    val runs = measure(2) {
      flip = !flip
      runOp(inst, counting = false, split = flip, Option.when(flip)(tracer))
    }
    val (tr, plain) = runs.partition(_.traced)
    val perOp = tr.map { r =>
      r.stats ++ tracer.selfNs(r.op).collect { case (span, ns) if SelfTime.contains(span) => SelfTime(span) -> ns / 1e9 }
    }
    val trP50    = median(tr.map(_.ns / 1e9))
    val plainP50 = median(plain.map(_.ns / 1e9))
    val nsCall   = inst.nsPerCall(o.seed)
    val special = Map(
      "metric.calls"        -> counted.calls.toDouble,
      "metric.ns_per_call"  -> nsCall,
      "metric.share"        -> counted.calls * nsCall / 1e9 / plainP50,
      "op_s_p50"            -> plainP50,
      "trace.op_s_p50"      -> trP50,
      "trace.overhead_frac" -> (trP50 - plainP50) / plainP50)
    val trace = o.scratch.resolve("traces").resolve(s"${w.name}-seed${o.seed}.jsonl")
    tracer.write(trace)
    say(s"${tr.size} traced and ${plain.size} untraced ops; spans in $trace")
    PerLayer.map { case (k, unit) =>
      val v = special.getOrElse(k,
        if (k.endsWith("calls")) counted.stats.getOrElse(k, 0.0)
        else median(perOp.map(_.getOrElse(k, 0.0))))
      (k, v, unit)
    }
  }

  /** Untimed ops, each followed by the calibration loop, until the JIT has
    * settled: at least two, and at least `WarmUpNs` of op time. Returns how
    * many ran.
    */
  private def warmUp(inst: Instance, cal: Calibration): Int = {
    var spent = 0L
    var ops   = 0
    while ((ops < 2 || spent < WarmUpNs) && System.nanoTime() - startNs < WallCapNs) {
      val ns = math.max(0L, runOp(inst, counting = false, split = false, None).ns)
      calibrate(cal, ns)
      spent += ns
      ops += 1
    }
    ops
  }

  /** Runs ops until their summed time reaches the measured seconds and at
    * least `minOps` have completed.
    */
  private def measure(minOps: Int)(op: => OpRun): Seq[OpRun] = {
    val runs  = mutable.ArrayBuffer.empty[OpRun]
    val goal  = o.seconds * 1000000000L
    var spent = 0L
    while ((spent < goal || runs.size < minOps) && System.nanoTime() - startNs < WallCapNs) {
      val t0 = System.nanoTime()
      val r  = op
      spent += (if (r.ns >= 0) r.ns else System.nanoTime() - t0)
      if (r.ns >= 0) runs += r
    }
    runs.toSeq
  }

  private def runOp(inst: Instance, counting: Boolean, split: Boolean, tracer: Option[Tracer]): OpRun = {
    val id = nextOp
    nextOp += 1
    attempted += 1
    val p = new Probe(id, tracer, counting, split)
    try {
      inst.beforeOp()
      val gc0    = gcMs
      val alloc0 = threads.getTotalThreadAllocatedBytes
      val t0     = System.nanoTime()
      val finish = tracer.fold(inst.op(p))(_.span(id, "op")(inst.op(p)))
      val ns     = System.nanoTime() - t0
      val calls  = p.calls
      p.add("jvm.alloc_mb", (threads.getTotalThreadAllocatedBytes - alloc0) / 1e6)
      p.add("jvm.gc_s", (gcMs - gc0) / 1e3)
      inst.afterOp(p, ns, tracer)
      val outs = finish()
      outs.iterator.flatMap(Gate.check).nextOption().foreach { reason =>
        failed += 1
        System.err.println(s"[${w.name}] op $id failed the gate: $reason")
      }
      OpRun(id, ns, outs, p.stats.toMap, calls, tracer.isDefined)
    } catch {
      case NonFatal(e) =>
        failed += 1
        System.err.println(s"[${w.name}] op $id threw: $e")
        OpRun(id, -1L, Nil, Map.empty, 0L, tracer.isDefined)
    }
  }

  private def seconds(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }

  private def gcMs: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum

  private def json(correct: Boolean, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (k, v, u) =>
      val num = if (v.isNaN || v.isInfinite) 0.0 else v
      s""""$k": {"value": $num, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Harness {
  /** Set-ups per run: at least `SetupReps`, more while they take less than
    * `SetupBudgetS` in all, up to `MaxSetupReps`.
    */
  val SetupReps    = 5
  val MaxSetupReps = 40
  val SetupBudgetS = 2.0
  val WarmUpNs     = 4L * 1000000000L
  val WallCapNs    = 120L * 1000000000L

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  /** Span name → the per-layer metric that reports its self time. */
  val SelfTime: Map[String, String] = Map(
    "op" -> "op.self_s", "gonzalez" -> "gonzalez.s", "exact" -> "exact.s", "approx" -> "approx.s",
    "stream.pass1" -> "stream.pass1_s", "stream.pass2" -> "stream.pass2_s",
    "stream.merge" -> "stream.merge_s", "stream.pass3" -> "stream.pass3_s")

  /** Every per-layer metric with its unit, in report order. */
  val PerLayer: Seq[(String, String)] = Seq(
    "metric.calls" -> "count", "metric.ns_per_call" -> "ns", "metric.share" -> "frac",
    "gonzalez.s" -> "s", "gonzalez.calls" -> "count", "gonzalez.centers" -> "count",
    "gonzalez.cover_radius" -> "ratio",
    "exact.s" -> "s", "exact.label_s" -> "s", "exact.merge_s" -> "s", "exact.assign_s" -> "s",
    "exact.post_net_calls" -> "count",
    "approx.s" -> "s", "approx.summary_s" -> "s", "approx.merge_s" -> "s", "approx.label_s" -> "s",
    "approx.post_net_calls" -> "count", "approx.summary_size" -> "count",
    "stream.pass1_s" -> "s", "stream.pass2_s" -> "s", "stream.merge_s" -> "s", "stream.pass3_s" -> "s",
    "stream.pass1_calls" -> "count", "stream.pass2_calls" -> "count", "stream.merge_calls" -> "count",
    "stream.pass3_calls" -> "count", "stream.balls" -> "count", "stream.summary_size" -> "count",
    "stream.state_ratio" -> "frac",
    "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
    "spark.shuffle_write_bytes" -> "bytes", "spark.result_bytes" -> "bytes",
    "spark.broadcast_bytes" -> "bytes", "spark.job_s" -> "s", "spark.driver_s" -> "s",
    "spark.centers" -> "count", "spark.summary_size" -> "count",
    "jvm.gc_s" -> "s", "jvm.alloc_mb" -> "MB",
    "op.self_s" -> "s", "op_s_p50" -> "s", "trace.op_s_p50" -> "s", "trace.overhead_frac" -> "frac")
}
