package perfbench

import java.util.concurrent.{Callable, Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import repro.core.Metric
import scala.collection.mutable

/** Exact DBSCAN at one (radius, MinPts), as the correctness gate needs it.
  *
  * @param isCore |B(p, radius) ∩ X| ≥ MinPts, p itself included
  * @param comp   id of each core point's connected component in the graph of
  *               core points joined within `radius`; −1 for non-core points
  * @param reach  for each non-core point, the components that own a core point
  *               within `radius` (empty for an outlier)
  */
final case class Solution(
    radius: Double,
    minPts: Int,
    isCore: Array[Boolean],
    comp: Array[Int],
    reach: Array[Array[Int]]
) {
  def n: Int = isCore.length
}

/** Brute-force reference, independent of the algorithms under test. Two
  * sweeps over all pairs, spread over a few threads, serve every
  * (radius, MinPts) pair at once: the first counts neighbourhoods at every
  * radius, the second joins core points and records which cores witness
  * each non-core point. Memory stays O(n · configs). The only pairs skipped
  * are those the triangle inequality puts beyond the largest radius:
  * |dis(i, v) − dis(j, v)| > r for some pivot v implies dis(i, j) > r.
  */
object Reference {

  def solve[T](points: IndexedSeq[T], metric: Metric[T], configs: Seq[(Double, Int)],
               threads: Int): Map[(Double, Int), Solution] = {
    val n     = points.length
    val radii = configs.map(_._1).distinct.sorted.toArray
    val R     = radii.length

    // Sweep 1: |B(p, r)| for every radius. A pair adds to the smallest radius
    // that holds it; a prefix sum over radii gives the counts.
    val perThread = forPairs(points, metric, radii.last, threads) { () =>
      val cnt = Array.ofDim[Int](R, n)
      val visit: Visit = (i, j, d) => {
        var k = 0
        while (k < R && d > radii(k)) k += 1
        if (k < R) { cnt(k)(i) += 1; cnt(k)(j) += 1 }
      }
      (visit, cnt)
    }
    val counts = Array.fill(R)(Array.fill(n)(1)) // the point itself
    for (k <- 0 until R; c <- perThread; m <- k until R; i <- 0 until n) counts(m)(i) += c(k)(i)

    // Sweep 2, per config: union core pairs, and keep (non-core, core) pairs.
    // A non-core point has fewer than MinPts neighbours, so the pairs kept
    // are O(n · MinPts).
    val cfgs   = configs.distinct.sortBy(_._1).toArray
    val cores  = cfgs.map { case (r, m) => counts(radii.indexOf(r)).map(_ >= m) }
    val workers = forPairs(points, metric, radii.last, threads) { () =>
      val ufs     = cfgs.map(_ => new DisjointSets(n))
      val witness = cfgs.map(_ => mutable.ArrayBuilder.make[Long])
      val visit: Visit = (i, j, d) => {
        var c = cfgs.length - 1
        while (c >= 0 && d <= cfgs(c)._1) {
          val ci = cores(c)(i); val cj = cores(c)(j)
          if (ci && cj) ufs(c).union(i, j)
          else if (ci) witness(c) += (j.toLong << 32 | i)
          else if (cj) witness(c) += (i.toLong << 32 | j)
          c -= 1
        }
      }
      (visit, (ufs, witness))
    }

    cfgs.indices.map { c =>
      val uf = new DisjointSets(n)
      workers.foreach { case (ufs, _) => (0 until n).foreach(x => uf.union(x, ufs(c).find(x))) }
      val ids  = mutable.HashMap.empty[Int, Int]
      val comp = Array.tabulate(n)(x => if (cores(c)(x)) ids.getOrElseUpdate(uf.find(x), ids.size) else -1)
      val reach = Array.fill(n)(mutable.SortedSet.empty[Int])
      workers.foreach { case (_, w) =>
        w(c).result().foreach { pair => reach((pair >>> 32).toInt) += comp((pair & 0xffffffffL).toInt) }
      }
      cfgs(c) -> Solution(cfgs(c)._1, cfgs(c)._2, cores(c), comp, reach.map(_.toArray))
    }.toMap
  }

  /** Receives one pair and its distance; a SAM type keeps the arguments unboxed. */
  trait Visit {
    def apply(i: Int, j: Int, d: Double): Unit
  }

  /** Calls a fresh per-thread visitor on every unordered pair within
    * `maxR` of each other (and some beyond it) with its distance, and
    * returns each thread's accumulated state.
    */
  private def forPairs[T, S](points: IndexedSeq[T], metric: Metric[T], maxR: Double, threads: Int)(
      newWorker: () => (Visit, S)): Seq[S] = {
    val n     = points.length
    val pd    = pivotDistances(points, metric)
    val reach = maxR * (1 + 1e-9) + 1e-12 // slack for rounding in pd
    val next  = new AtomicInteger(0)
    val pool  = Executors.newFixedThreadPool(threads)
    try {
      val futures = (0 until threads).map { _ =>
        pool.submit(new Callable[S] {
          def call(): S = {
            val (visit, state) = newWorker()
            var i = next.getAndIncrement()
            while (i < n) {
              val p = points(i)
              var j = i + 1
              while (j < n) {
                var k = 0
                while (k < pd.length && math.abs(pd(k)(i) - pd(k)(j)) <= reach) k += 1
                if (k == pd.length) visit(i, j, metric.dist(p, points(j)))
                j += 1
              }
              i = next.getAndIncrement()
            }
            state
          }
        })
      }
      futures.map(_.get())
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }

  /** Distances of every point to a few pivots spread out by farthest-first
    * traversal from point 0.
    */
  private def pivotDistances[T](points: IndexedSeq[T], metric: Metric[T]): Array[Array[Double]] = {
    val near = Array.fill(points.length)(Double.PositiveInfinity)
    var piv  = 0
    Array.fill(Pivots) {
      val d = points.map(metric.dist(_, points(piv))).toArray
      for (i <- d.indices) near(i) = math.min(near(i), d(i))
      piv = near.indices.maxBy(near(_))
      d
    }
  }

  private val Pivots = 4

  /** Plain union-find, kept apart from the union-find under test. */
  final class DisjointSets(n: Int) {
    private val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    def union(a: Int, b: Int): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
  }
}
