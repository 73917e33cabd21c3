package repro.core

import scala.collection.mutable.ArrayBuffer

/** Output of the radius-guided Gonzalez algorithm (Algorithm 1 of the paper).
  *
  * @param centerIdx   indices (into the input sequence) of the chosen centers E,
  *                    in selection order
  * @param assignment  for every point p, the *position* (0-based, into
  *                    `centerIdx`) of its closest center c_p
  * @param distToCenter dis(p, c_p) for every point
  * @param coverSets   position e ↦ the cover set C_e = { p | c_p = e }, as
  *                    point indices
  */
final case class GonzalezResult(
    centerIdx: IndexedSeq[Int],
    assignment: Array[Int],
    distToCenter: Array[Double],
    coverSets: IndexedSeq[Array[Int]]
) {
  def numCenters: Int = centerIdx.length

  /** Covering radius max_p dis(p, E) actually achieved (≤ r̄ on return). */
  def coveringRadius: Double = if (distToCenter.isEmpty) 0.0 else distToCenter.max
}

/** Radius-guided Gonzalez k-center (Algorithm 1).
  *
  * Iteratively adds the point farthest from the current center set E until
  * max_p dis(p, E) ≤ r̄. On return, E is an r̄-covering of X with pairwise
  * center distances > r̄ (an r̄-net up to the boundary case), and each point
  * carries its closest center and the cover sets C_e are materialized —
  * exactly the state the paper's DBSCAN steps consume.
  */
object Gonzalez {

  /** Run Algorithm 1.
    *
    * @param points the dataset X
    * @param metric distance function
    * @param rBar   the radius upper bound r̄ (> 0)
    * @param seedIdx index of the arbitrary first center p0 (default 0)
    * @param maxCenters safety valve on |E| (default unbounded) — the paper's
    *                   bound is O((Δ/r̄)^D + z) but adversarial data could
    *                   blow up; callers may cap.
    */
  def run[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      rBar: Double,
      seedIdx: Int = 0,
      maxCenters: Int = Int.MaxValue
  ): GonzalezResult = {
    require(rBar > 0, s"rBar must be positive, got $rBar")
    require(points.nonEmpty, "empty input")
    val n          = points.length
    val assignment = new Array[Int](n)
    val dists      = Array.fill(n)(Double.PositiveInfinity)
    val centers    = ArrayBuffer.empty[Int]
    // Per center position f (|E| ≤ n): maxd(f) = max dists over C_f after the
    // last scan, and cc(f) = dis(new center, f) bounded at 2·maxd(f).
    val maxd = new Array[Double](n)
    val cc   = new Array[Double](n)

    var next = seedIdx
    var dmax = Double.PositiveInfinity
    while (dmax > rBar && centers.length < maxCenters) {
      val e   = centers.length
      val c   = points(next)
      centers += next
      // A point p of C_f can only move to c if dis(c, f) < 2·dis(p, f)
      // (triangle inequality), so one bounded evaluation per center rules
      // out whole cover sets; a set whose points all sit on f needs none.
      var f = 0
      while (f < e) {
        cc(f) = if (maxd(f) > 0) metric.distWithin(c, points(centers(f)), 2 * maxd(f))
                else Double.PositiveInfinity
        maxd(f) = 0.0
        f += 1
      }
      maxd(e) = 0.0
      // Relax every point against the newly added center; track the new argmax
      // (strict >, so the lowest index wins ties) and each set's new maxd.
      var i       = 0
      var newMax  = 0.0
      var newNext = -1
      while (i < n) {
        if (e == 0 || cc(assignment(i)) < 2 * dists(i)) {
          val d = metric.distWithin(points(i), c, dists(i))
          if (d < dists(i)) { dists(i) = d; assignment(i) = e }
        }
        val di = dists(i)
        if (di > maxd(assignment(i))) maxd(assignment(i)) = di
        if (di > newMax) { newMax = di; newNext = i }
        i += 1
      }
      dmax = newMax
      next = newNext
    }

    val sets = Array.fill(centers.length)(ArrayBuffer.empty[Int])
    var i    = 0
    while (i < n) { sets(assignment(i)) += i; i += 1 }
    GonzalezResult(centers.toIndexedSeq, assignment, dists, sets.map(_.toArray).toIndexedSeq)
  }

  /** Neighbor-ball center sets: for every center position e, the positions
    * e' with dis(e, e') ≤ threshold (the paper's A_p, eq. (1) with threshold
    * 2r̄+ε for the exact algorithm, eq. (13) with 4r̄+ε for Algorithm 2).
    * A center is always a neighbor of itself. O(|E|²) distance evaluations —
    * |E| is summary-sized.
    */
  def neighborSets[T](
      points: IndexedSeq[T],
      metric: Metric[T],
      res: GonzalezResult,
      threshold: Double
  ): IndexedSeq[Array[Int]] = {
    val k  = res.numCenters
    val cs = res.centerIdx.map(points)
    val out = Array.fill(k)(ArrayBuffer.empty[Int])
    var i = 0
    while (i < k) {
      out(i) += i
      var j = i + 1
      while (j < k) {
        if (metric.distWithin(cs(i), cs(j), threshold) <= threshold) { out(i) += j; out(j) += i }
        j += 1
      }
      i += 1
    }
    out.map(_.toArray.sorted).toIndexedSeq
  }
}
