package perfbench

import org.apache.spark.SparkContext
import scala.util.Random

/** A fixed piece of work like a workload's op, written in the benchmark's
  * files so that no change to the program moves it, and timed between
  * measured ops: for the core workloads a plain loop of distance
  * evaluations over copies of the workload's own points (one unit is a
  * million evaluations), for Spark a plain job of one task per partition
  * (one unit is one job).
  *
  * The benchmark shares a few cores of a host with other tenants, and how
  * fast those cores run drifts by ±20% over tens of seconds. An op and this
  * work, timed in turns over the same seconds, slow down together; the op's
  * time in units of it keeps the program's own speed and drops most of the
  * host's drift.
  */
final class Calibration private (unitsPerPass: Double, pass: () => Double) {
  private var sink = 0.0

  /** Runs one pass; nanoseconds per unit. */
  def unitNs(): Double = {
    val t0 = System.nanoTime()
    sink += pass()
    val ns = (System.nanoTime() - t0) / unitsPerPass
    if (sink.isNaN) Double.NaN else ns
  }
}

object Calibration {

  /** Euclidean distances between fixed random pairs of `points`. */
  def euclid(points: IndexedSeq[Array[Double]], seed: Long): Calibration = {
    val own   = points.map(_.clone()).toArray
    val pairs = randomPairs(own.length, 16384, seed)
    new Calibration(pairs.length / 2 / 1e6, () => {
      var acc = 0.0
      var k   = 0
      while (k < pairs.length) {
        val a = own(pairs(k)); val b = own(pairs(k + 1))
        var s = 0.0
        var j = 0
        while (j < a.length) { val d = a(j) - b(j); s += d * d; j += 1 }
        acc += math.sqrt(s)
        k += 2
      }
      acc
    })
  }

  /** Levenshtein distances between fixed random pairs of `points`. */
  def edit(points: IndexedSeq[String], seed: Long): Calibration = {
    val own   = points.map(_.toCharArray).toArray
    val pairs = randomPairs(own.length, 64, seed)
    val width = own.map(_.length).max + 1
    val rowA  = new Array[Int](width)
    val rowB  = new Array[Int](width)
    new Calibration(pairs.length / 2 / 1e6, () => {
      var acc = 0.0
      var k   = 0
      while (k < pairs.length) {
        val a = own(pairs(k)); val b = own(pairs(k + 1))
        var prev = rowA; var cur = rowB
        var j = 0
        while (j <= b.length) { prev(j) = j; j += 1 }
        var i = 1
        while (i <= a.length) {
          cur(0) = i
          j = 1
          while (j <= b.length) {
            val sub = prev(j - 1) + (if (a(i - 1) == b(j - 1)) 0 else 1)
            cur(j) = math.min(sub, math.min(prev(j), cur(j - 1)) + 1)
            j += 1
          }
          val t = prev; prev = cur; cur = t
          i += 1
        }
        acc += prev(b.length)
        k += 2
      }
      acc
    })
  }

  /** One job of `partitions` tasks that sum a few numbers. */
  def sparkJob(sc: SparkContext, partitions: Int): Calibration = {
    val rdd = sc.parallelize(0 until 64 * partitions, partitions)
    new Calibration(1.0, () => rdd.map(_.toLong).reduce(_ + _).toDouble)
  }

  private def randomPairs(n: Int, count: Int, seed: Long): Array[Int] = {
    val rnd = new Random(seed)
    Array.fill(2 * count)(rnd.nextInt(n))
  }
}
