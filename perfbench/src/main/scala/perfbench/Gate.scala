package perfbench

import repro.core.{DBSCANResult, GonzalezResult, PointType}
import scala.collection.mutable

/** One output of an op, with the reference it must agree with. */
sealed trait Produced

/** An `ExactDBSCAN` result: it must equal exact DBSCAN at `ref`. */
final case class ExactOut(ref: Solution, got: DBSCANResult) extends Produced

/** A ρ-approximate labeling (Definition 2): sandwiched between `lo` =
  * exact(ε) and `hi` = exact((1+ρ)ε). When the driver reports point types,
  * every point typed `Core` must be a true core point at ε.
  */
final case class ApproxOut(lo: Solution, hi: Solution, labels: Array[Int],
                           types: Option[Array[PointType.Value]]) extends Produced

/** An Algorithm 1 net: every point lies within r̄ of its center. */
final case class NetOut(net: GonzalezResult, rBar: Double, n: Int) extends Produced

/** An output that could not be read back whole. */
final case class Invalid(reason: String) extends Produced

/** The correctness gate. Every op's outputs pass through [[check]] outside
  * the timed region; an op fails if any output yields a violation.
  */
object Gate {

  def check(p: Produced): Option[String] = p match {
    case ExactOut(ref, got)               => exact(ref, got)
    case ApproxOut(lo, hi, labels, types) => approx(lo, hi, labels, types)
    case NetOut(net, rBar, n) =>
      if (net.assignment.length != n) Some(s"net: ${net.assignment.length} assignments for $n points")
      else if (net.coveringRadius > rBar) Some(s"net: covering radius ${net.coveringRadius} > r̄ = $rBar")
      else None
    case Invalid(reason) => Some(reason)
  }

  /** The same output with one core point moved to another cluster, which
    * [[check]] must reject; None for outputs that carry no clustering.
    */
  def corrupt(p: Produced): Option[Produced] = p match {
    case ExactOut(ref, got) =>
      moveOneCore(got.labels, ref).map(l => ExactOut(ref, DBSCANResult(l, got.types)))
    case a: ApproxOut => moveOneCore(a.labels, a.lo).map(l => a.copy(labels = l))
    case _: NetOut | _: Invalid => None
  }

  /** `TestUtil.assertSameDBSCAN` semantics: the same core and outlier sets, a
    * bijection between clusters on core points, and every border point in a
    * cluster that owns a core point within ε of it.
    */
  def exact(ref: Solution, got: DBSCANResult): Option[String] = {
    val n = ref.n
    if (got.n != n) return Some(s"exact: ${got.n} labels for $n points")
    val fwd = mutable.HashMap.empty[Int, Int] // got cluster -> reference component
    val bwd = mutable.HashMap.empty[Int, Int]
    for (i <- 0 until n) {
      val t       = got.types(i)
      val outlier = !ref.isCore(i) && ref.reach(i).isEmpty
      if ((t == PointType.Core) != ref.isCore(i))
        return Some(s"exact: point $i typed $t, reference core = ${ref.isCore(i)}")
      if ((t == PointType.Outlier) != outlier)
        return Some(s"exact: point $i typed $t, reference outlier = $outlier")
      if ((t == PointType.Outlier) != (got.labels(i) < 0))
        return Some(s"exact: point $i typed $t has label ${got.labels(i)}")
      if (t == PointType.Core) {
        val g = got.labels(i); val w = ref.comp(i)
        if (fwd.getOrElseUpdate(g, w) != w) return Some(s"exact: cluster $g joins two true clusters (point $i)")
        if (bwd.getOrElseUpdate(w, g) != g) return Some(s"exact: a true cluster is split (point $i)")
      }
    }
    (0 until n).find { i =>
      got.types(i) == PointType.Border && !fwd.get(got.labels(i)).exists(ref.reach(i).contains)
    }.map(i => s"exact: border point $i has no core point within ε in cluster ${got.labels(i)}")
  }

  /** Gan–Tao sandwich on the exact(ε) core points, plus "typed Core ⇒ core". */
  def approx(lo: Solution, hi: Solution, labels: Array[Int],
             types: Option[Array[PointType.Value]]): Option[String] = {
    val n = lo.n
    if (labels.length != n) return Some(s"approx: ${labels.length} labels for $n points")
    val byLo    = mutable.HashMap.empty[Int, Int] // exact(ε) component -> label
    val byLabel = mutable.HashMap.empty[Int, Int] // label -> exact((1+ρ)ε) component
    for (i <- 0 until n if lo.isCore(i)) {
      val l = labels(i)
      if (l < 0) return Some(s"approx: core point $i is noise")
      if (byLo.getOrElseUpdate(lo.comp(i), l) != l)
        return Some(s"approx: an exact(ε) cluster is split (point $i)")
      if (byLabel.getOrElseUpdate(l, hi.comp(i)) != hi.comp(i))
        return Some(s"approx: cluster $l joins points apart at radius ${hi.radius} (point $i)")
    }
    types.flatMap { t =>
      (0 until n).collectFirst {
        case i if t(i) == PointType.Core && !lo.isCore(i) => s"approx: point $i typed Core is not core"
        case i if (t(i) == PointType.Outlier) != (labels(i) < 0) =>
          s"approx: point $i typed ${t(i)} has label ${labels(i)}"
      }
    }
  }

  /** Moves a core point whose true cluster has another core point to some
    * other cluster id.
    */
  private def moveOneCore(labels: Array[Int], ref: Solution): Option[Array[Int]] = {
    val sizes = ref.comp.filter(_ >= 0).groupBy(identity).view.mapValues(_.length).toMap
    ref.comp.indices
      .find(i => ref.comp(i) >= 0 && sizes(ref.comp(i)) >= 2 && labels(i) >= 0)
      .map { i =>
        val other = labels.find(l => l >= 0 && l != labels(i)).getOrElse(labels.max + 1)
        labels.updated(i, other)
      }
  }
}
