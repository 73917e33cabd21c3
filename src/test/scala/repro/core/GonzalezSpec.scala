package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GonzalezSpec extends AnyFunSuite {
  import TestUtil._

  private def checkInvariants(points: IndexedSeq[Vec], rBar: Double): GonzalezResult = {
    val g = Gonzalez.run(points, EuclideanMetric, rBar)
    // covering: every point within r̄ of its center
    points.indices.foreach { i =>
      val c = points(g.centerIdx(g.assignment(i)))
      val d = EuclideanMetric.dist(points(i), c)
      assert(d <= rBar + 1e-9, s"covering violated at $i: $d > $rBar")
      assert(math.abs(d - g.distToCenter(i)) < 1e-9, "distToCenter inconsistent")
    }
    // packing: pairwise center distances > r̄
    val cs = g.centerIdx.map(points)
    for (i <- cs.indices; j <- i + 1 until cs.length)
      assert(EuclideanMetric.dist(cs(i), cs(j)) > rBar, s"packing violated: centers $i,$j")
    // assignment is to the NEAREST center
    points.indices.foreach { i =>
      val best = cs.map(EuclideanMetric.dist(points(i), _)).min
      assert(math.abs(best - g.distToCenter(i)) < 1e-9, s"non-nearest assignment at $i")
    }
    // cover sets partition the indices
    assert(g.coverSets.map(_.length).sum == points.length)
    assert(g.coverSets.flatten.sorted == points.indices.toList)
    g
  }

  test("invariants hold on gaussian blobs") {
    checkInvariants(blobs(300, 2, 3, seed = 11), rBar = 1.0)
    checkInvariants(blobs(300, 5, 4, seed = 12), rBar = 2.0)
  }

  test("invariants hold on uniform data over many radii") {
    val pts = uniform(400, 3, seed = 13)
    Seq(0.5, 1.0, 2.0, 5.0, 50.0).foreach(r => checkInvariants(pts, r))
  }

  test("invariants hold with outliers present") {
    checkInvariants(blobs(300, 2, 3, outliers = 20, seed = 14), rBar = 0.8)
  }

  test("huge rBar gives a single center") {
    val pts = uniform(100, 2, seed = 15)
    val g   = Gonzalez.run(pts, EuclideanMetric, rBar = 1e9)
    assert(g.numCenters == 1)
    assert(g.coverSets.head.length == 100)
  }

  test("tiny rBar on distinct points selects every point") {
    val rnd = new Random(16)
    val pts = IndexedSeq.fill(50)(Array(rnd.nextDouble() * 100, rnd.nextDouble() * 100))
    val g   = Gonzalez.run(pts, EuclideanMetric, rBar = 1e-9)
    assert(g.numCenters == 50)
  }

  test("maxCenters caps the run") {
    val pts = uniform(200, 2, seed = 17)
    val g   = Gonzalez.run(pts, EuclideanMetric, rBar = 1e-9, maxCenters = 10)
    assert(g.numCenters == 10)
  }

  test("works with edit distance (abstract metric space)") {
    val rnd = new Random(18)
    val strs = IndexedSeq.fill(80)(
      Iterator.fill(6 + rnd.nextInt(6))(('a' + rnd.nextInt(4)).toChar).mkString)
    val g = Gonzalez.run(strs, EditDistanceMetric, rBar = 3.0)
    strs.indices.foreach { i =>
      assert(EditDistanceMetric.dist(strs(i), strs(g.centerIdx(g.assignment(i)))) <= 3.0)
    }
  }

  test("neighborSets: symmetric, reflexive, and exactly the threshold ball") {
    val pts = blobs(200, 2, 4, seed = 19)
    val g   = Gonzalez.run(pts, EuclideanMetric, 1.0)
    val thr = 4.0
    val a   = Gonzalez.neighborSets(pts, EuclideanMetric, g, thr)
    val cs  = g.centerIdx.map(pts)
    for (i <- cs.indices) {
      assert(a(i).contains(i), "A_e must contain e itself")
      for (j <- cs.indices) {
        val in = EuclideanMetric.dist(cs(i), cs(j)) <= thr
        assert(a(i).contains(j) == in, s"A($i) membership of $j wrong")
        assert(a(i).contains(j) == a(j).contains(i), "A must be symmetric")
      }
    }
  }

  test("Lemma 2: B(p, eps) is inside the union of A_p's cover sets") {
    val pts  = blobs(250, 2, 3, outliers = 10, seed = 20)
    val eps  = 1.2
    val rBar = eps / 2
    val g    = Gonzalez.run(pts, EuclideanMetric, rBar)
    val a    = Gonzalez.neighborSets(pts, EuclideanMetric, g, 2 * rBar + eps)
    pts.indices.foreach { p =>
      val region = a(g.assignment(p)).flatMap(g.coverSets(_)).toSet
      pts.indices.foreach { q =>
        if (EuclideanMetric.dist(pts(p), pts(q)) <= eps)
          assert(region.contains(q), s"Lemma 2 violated: $q ∈ B($p, ε) but outside region")
      }
    }
  }

  test("Lemma 1 shape: |E| shrinks as rBar grows") {
    val pts  = uniform(500, 2, seed = 21)
    val sizes = Seq(0.3, 0.6, 1.2, 2.4).map(r => Gonzalez.run(pts, EuclideanMetric, r).numCenters)
    assert(sizes == sizes.sortBy(-_), s"center counts should be non-increasing: $sizes")
  }

  test("deterministic given the seed point") {
    val pts = blobs(150, 3, 3, seed = 22)
    val g1  = Gonzalez.run(pts, EuclideanMetric, 1.0)
    val g2  = Gonzalez.run(pts, EuclideanMetric, 1.0)
    assert(g1.centerIdx == g2.centerIdx)
    assert(g1.assignment.sameElements(g2.assignment))
  }

  /** Algorithm 1 as plainly as it reads: full distances, no pruning. */
  private def unpruned[T](points: IndexedSeq[T], metric: Metric[T], rBar: Double)
      : (IndexedSeq[Int], IndexedSeq[Int], IndexedSeq[Double]) = {
    val n          = points.length
    val assignment = Array.fill(n)(0)
    val dists      = Array.fill(n)(Double.PositiveInfinity)
    val centers    = scala.collection.mutable.ArrayBuffer.empty[Int]
    var next       = 0
    while (next >= 0 && (centers.isEmpty || dists(next) > rBar)) {
      val e = centers.length
      centers += next
      for (i <- 0 until n) {
        val d = metric.dist(points(i), points(next))
        if (d < dists(i)) { dists(i) = d; assignment(i) = e }
      }
      // Farthest point, lowest index on ties; -1 once every point is a center.
      next = -1
      var far = 0.0
      for (i <- 0 until n) if (dists(i) > far) { far = dists(i); next = i }
    }
    (centers.toIndexedSeq, assignment.toIndexedSeq, dists.toIndexedSeq)
  }

  private def assertSameNet[T](points: IndexedSeq[T], metric: Metric[T], rBar: Double): Unit = {
    val g                   = Gonzalez.run(points, metric, rBar)
    val (cs, assign, dists) = unpruned(points, metric, rBar)
    assert(g.centerIdx == cs, s"centers differ at r̄=$rBar")
    assert(g.assignment.toIndexedSeq == assign, s"assignment differs at r̄=$rBar")
    assert(g.distToCenter.toIndexedSeq == dists, s"distToCenter differs at r̄=$rBar")
    assert(g.coverSets.map(_.toSeq) == cs.indices.map(e => points.indices.filter(assign(_) == e)))
  }

  test("pruned run builds the same net as the unpruned loop: blobs and uniform data") {
    val bl = blobs(400, 3, 5, outliers = 20, seed = 23)
    Seq(0.3, 1.0, 3.0, 12.0).foreach(assertSameNet(bl, EuclideanMetric, _))
    val un = uniform(400, 12, seed = 24)
    Seq(1.0, 3.0, 8.0).foreach(assertSameNet(un, EuclideanMetric, _))
  }

  test("pruned run builds the same net as the unpruned loop: duplicates and a lattice") {
    val rnd  = new Random(25)
    val base = IndexedSeq.fill(12)(Array(rnd.nextInt(5).toDouble, rnd.nextInt(5).toDouble))
    val dups = IndexedSeq.fill(300)(base(rnd.nextInt(base.length)).clone())
    Seq(0.5, 1.0, 2.0).foreach(assertSameNet(dups, EuclideanMetric, _))
    // Integer lattice: many exact ties in distances and in the argmax.
    val grid = for (x <- 0 until 15; y <- 0 until 15) yield Array(x.toDouble, y.toDouble)
    Seq(1.0, 1.5, 2.0, 4.0).foreach(assertSameNet(grid, EuclideanMetric, _))
  }

  test("pruned run builds the same net as the unpruned loop: edit distance") {
    val rnd  = new Random(26)
    val base = IndexedSeq.fill(6)(Iterator.fill(12)(('a' + rnd.nextInt(4)).toChar).mkString)
    val strs = IndexedSeq.fill(200) {
      val s = new StringBuilder(base(rnd.nextInt(base.length)))
      for (_ <- 0 until rnd.nextInt(6)) {
        val at = rnd.nextInt(s.length + 1)
        rnd.nextInt(3) match {
          case 0 if s.nonEmpty && at < s.length => s.deleteCharAt(at)
          case 1 => s.insert(at, ('a' + rnd.nextInt(4)).toChar)
          case _ if at < s.length => s.setCharAt(at, ('a' + rnd.nextInt(4)).toChar)
          case _ => s.append('d')
        }
      }
      s.toString
    }
    Seq(1.0, 2.0, 3.0, 5.0, 8.0).foreach(assertSameNet(strs, EditDistanceMetric, _))
  }
}
