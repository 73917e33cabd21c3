package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MetricSpec extends AnyFunSuite {

  test("euclidean: zero iff identical") {
    val a = Array(1.0, 2.0, 3.0)
    assert(EuclideanMetric.dist(a, a) == 0.0)
    assert(EuclideanMetric.dist(a, Array(1.0, 2.0, 3.1)) > 0)
  }

  test("euclidean: known value") {
    assert(math.abs(EuclideanMetric.dist(Array(0.0, 0.0), Array(3.0, 4.0)) - 5.0) < 1e-12)
  }

  test("euclidean: symmetry on random vectors") {
    val rnd = new Random(1)
    for (_ <- 0 until 200) {
      val d = 1 + rnd.nextInt(16)
      val a = Array.fill(d)(rnd.nextGaussian() * 10)
      val b = Array.fill(d)(rnd.nextGaussian() * 10)
      assert(EuclideanMetric.dist(a, b) == EuclideanMetric.dist(b, a))
    }
  }

  test("euclidean: triangle inequality on random triples") {
    val rnd = new Random(2)
    for (_ <- 0 until 500) {
      val d = 1 + rnd.nextInt(8)
      val Seq(a, b, c) = Seq.fill(3)(Array.fill(d)(rnd.nextGaussian() * 5))
      assert(EuclideanMetric.dist(a, c) <=
        EuclideanMetric.dist(a, b) + EuclideanMetric.dist(b, c) + 1e-9)
    }
  }

  test("euclidean: dimension mismatch rejected") {
    intercept[IllegalArgumentException] {
      EuclideanMetric.dist(Array(1.0), Array(1.0, 2.0))
    }
  }

  test("edit distance: known values") {
    assert(EditDistanceMetric.dist("kitten", "sitting") == 3.0)
    assert(EditDistanceMetric.dist("flaw", "lawn") == 2.0)
    assert(EditDistanceMetric.dist("", "abc") == 3.0)
    assert(EditDistanceMetric.dist("abc", "") == 3.0)
    assert(EditDistanceMetric.dist("abc", "abc") == 0.0)
    assert(EditDistanceMetric.dist("a", "b") == 1.0)
  }

  test("edit distance: symmetry on random strings") {
    val rnd = new Random(3)
    def s(): String = Iterator.fill(rnd.nextInt(12))(('a' + rnd.nextInt(4)).toChar).mkString
    for (_ <- 0 until 300) {
      val (a, b) = (s(), s())
      assert(EditDistanceMetric.dist(a, b) == EditDistanceMetric.dist(b, a))
    }
  }

  test("edit distance: triangle inequality on random triples") {
    val rnd = new Random(4)
    def s(): String = Iterator.fill(rnd.nextInt(10))(('a' + rnd.nextInt(3)).toChar).mkString
    for (_ <- 0 until 500) {
      val (a, b, c) = (s(), s(), s())
      assert(EditDistanceMetric.dist(a, c) <=
        EditDistanceMetric.dist(a, b) + EditDistanceMetric.dist(b, c))
    }
  }

  test("edit distance: bounded by max length, at least length difference") {
    val rnd = new Random(5)
    def s(): String = Iterator.fill(rnd.nextInt(15))(('a' + rnd.nextInt(5)).toChar).mkString
    for (_ <- 0 until 300) {
      val (a, b) = (s(), s())
      val d = EditDistanceMetric.dist(a, b)
      assert(d <= math.max(a.length, b.length))
      assert(d >= math.abs(a.length - b.length))
    }
  }

  /** distWithin's contract: the exact distance when it is ≤ cutoff, else
    * some value > cutoff.
    */
  private def honours[T](m: Metric[T], a: T, b: T, cutoff: Double): Boolean = {
    val d = m.dist(a, b)
    val w = m.distWithin(a, b, cutoff)
    if (d <= cutoff) w == d else w > cutoff
  }

  private def assertProp(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000), p)
    assert(r.passed, r.status.toString)
  }

  /** Cutoffs around the true distance d: at, just below and above it,
    * fractional, zero and infinite.
    */
  private def cutoffs(d: Double): Gen[Double] =
    Gen.oneOf(Gen.const(d), Gen.const(math.max(0.0, d - 1)), Gen.const(d + 1),
      Gen.choose(0.0, 2 * d + 1), Gen.const(0.0), Gen.const(Double.PositiveInfinity))

  test("distWithin contract: edit distance on random strings and cutoffs") {
    val str = Gen.choose(0, 20).flatMap(n => Gen.stringOfN(n, Gen.oneOf('a', 'b', 'c')))
    val cases = for {
      a <- str; b <- str
      c <- cutoffs(EditDistanceMetric.dist(a, b))
    } yield (a, b, c)
    assertProp(Prop.forAll(cases) { case (a, b, c) => honours(EditDistanceMetric, a, b, c) })
  }

  test("distWithin contract: euclidean on random vectors and cutoffs, bit-exact below it") {
    val cases = for {
      d <- Gen.choose(1, 40)
      a <- Gen.containerOfN[Array, Double](d, Gen.choose(-10.0, 10.0))
      b <- Gen.containerOfN[Array, Double](d, Gen.choose(-10.0, 10.0))
      c <- cutoffs(EuclideanMetric.dist(a, b))
    } yield (a, b, c)
    assertProp(Prop.forAll(cases) { case (a, b, c) => honours(EuclideanMetric, a, b, c) })
  }

  test("distWithin edge cases: empty, equal, length gap, zero, fractional and infinite cutoffs") {
    val m = EditDistanceMetric
    assert(m.distWithin("", "", 0.0) == 0.0)
    assert(m.distWithin("abc", "abc", 0.0) == 0.0)
    assert(m.distWithin("", "abc", 3.0) == 3.0)
    assert(m.distWithin("abc", "", 2.0) > 2.0)
    assert(m.distWithin("a", "abcdef", 2.0) > 2.0)     // length gap 5 alone exceeds the cutoff
    assert(m.distWithin("abc", "abd", 0.0) > 0.0)
    assert(m.distWithin("kitten", "sitting", 3.5) == 3.0)
    assert(m.distWithin("kitten", "sitting", 2.9) > 2.9)
    assert(m.distWithin("kitten", "sitting", Double.PositiveInfinity) == 3.0)
    assert(m.distWithin("aaaaaaaa", "bbbbbbbb", 1.0) > 1.0)

    val e = EuclideanMetric
    assert(e.distWithin(Array(0.0, 0.0), Array(3.0, 4.0), 5.0) == 5.0)
    assert(e.distWithin(Array(0.0, 0.0), Array(3.0, 4.0), 4.999) > 4.999)
    assert(e.distWithin(Array(0.0, 0.0), Array(3.0, 4.0), 0.0) > 0.0)
    assert(e.distWithin(Array(0.0, 0.0), Array(3.0, 4.0), Double.PositiveInfinity) == 5.0)
    assert(e.distWithin(Array(1.0, 2.0), Array(1.0, 2.0), 0.0) == 0.0)
    assert(e.distWithin(Array.fill(20)(0.0), Array.fill(20)(1.0), 1.0) > 1.0)
  }

  test("distWithin: dimension mismatch still rejected at any cutoff") {
    for (c <- Seq(0.0, 1.0, Double.PositiveInfinity))
      intercept[IllegalArgumentException](EuclideanMetric.distWithin(Array(1.0), Array(1.0, 2.0), c))
  }
}
