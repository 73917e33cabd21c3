package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import org.apache.spark.SparkContext
import repro.core.Metric
import scala.collection.mutable

/** One timed interval of an op. `parent` is the id of the enclosing span,
  * −1 for the op's root span.
  */
final case class Span(op: Int, id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def json: String =
    s"""{"op":$op,"id":$id,"parent":$parent,"name":"$name","start_ns":$startNs,"end_ns":$endNs}"""
}

/** Records spans in memory; spans of one op share the op's id. */
final class Tracer {
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private var open   = List.empty[Int] // ids of open spans, innermost first
  private var nextId = 0

  def span[A](op: Int, name: String)(body: => A): A = {
    val id     = nextId
    val parent = open.headOption.getOrElse(-1)
    nextId += 1
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      open = open.tail
      spans += Span(op, id, parent, name, t0, System.nanoTime())
    }
  }

  /** Adds an interval measured elsewhere (a Spark job), as a child of the
    * innermost closed span of `op` that contains its start.
    */
  def external(op: Int, name: String, startNs: Long, endNs: Long): Unit = {
    val enclosing = spans.iterator
      .filter(s => s.op == op && s.startNs <= startNs && startNs <= s.endNs)
      .maxByOption(_.startNs)
    spans += Span(op, nextId, enclosing.fold(-1)(_.id), name, startNs, endNs)
    nextId += 1
  }

  /** Self time per span name for one op: each span's duration minus the part
    * of it that its children cover.
    */
  def selfNs(op: Int): Map[String, Long] = {
    val mine     = spans.filter(_.op == op)
    val children = mine.groupBy(_.parent)
    mine.groupMapReduce(_.name) { s =>
      val kids = children.getOrElse(s.id, Nil).map(c =>
        (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs))).filter(iv => iv._1 < iv._2)
      (s.endNs - s.startNs) - Tracer.covered(kids.toSeq)
    }(_ + _)
  }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    Files.write(path, spans.sortBy(_.id).map(_.json).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {

  /** Length of the union of half-open intervals. */
  def covered(ivs: Seq[(Long, Long)]): Long = {
    var total = 0L
    var end   = Long.MinValue
    ivs.sortBy(_._1).foreach { case (s, e) =>
      if (e > end) { total += e - math.max(s, end); end = e }
    }
    total
  }
}

/** What one op records besides its output: spans around each call into a
  * layer (traced ops), the distance evaluations of each layer (counting ops),
  * and per-op statistics read from the layers' public outputs.
  *
  * @param split run Algorithm 1 through `Gonzalez.run` and hand its result to
  *              the DBSCAN drivers as `precomputed` (the same work), so the
  *              net shows up as its own layer
  */
final class Probe(val op: Int, tracer: Option[Tracer], counting: Boolean, val split: Boolean) {
  private var counter: CallCounter = _
  val stats = mutable.LinkedHashMap.empty[String, Double]

  def add(key: String, v: Double): Unit = stats(key) = stats.getOrElse(key, 0.0) + v
  def max(key: String, v: Double): Unit = stats(key) = math.max(stats.getOrElse(key, v), v)

  /** The metric an op must use: `m` itself, or a ledger around it. */
  def wrap[T](m: Metric[T]): Metric[T] =
    if (!counting) m else { val c = new CountingMetric(m); counter = c; c }

  def wrapSpark[T](m: Metric[T], sc: SparkContext): Metric[T] =
    if (!counting) m
    else { val c = new AccumulatingMetric(m, sc.longAccumulator("dist")); counter = c; c }

  /** Distance evaluations so far in this op (0 unless counting). */
  def calls: Long = if (counter == null) 0L else counter.calls

  /** One call into a layer: a span named `name` when tracing, and its
    * distance evaluations added to `callsKey` when counting.
    */
  def layer[A](name: String, callsKey: String = "")(body: => A): A = {
    val c0     = calls
    val result = tracer.fold(body)(_.span(op, name)(body))
    if (counter != null && callsKey.nonEmpty) add(callsKey, (calls - c0).toDouble)
    result
  }
}
