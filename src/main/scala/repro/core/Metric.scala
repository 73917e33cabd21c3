package repro.core

/** A distance function over payload type `T`.
  *
  * Implementations must satisfy the metric axioms (identity, symmetry,
  * triangle inequality) — every complexity bound in the paper leans on the
  * triangle inequality, and `MetricSpec` property-tests it on samples.
  */
trait Metric[T] extends Serializable {
  def dist(a: T, b: T): Double

  /** Bounded distance: if dis(a, b) ≤ `cutoff` this is exactly `dist(a, b)`;
    * otherwise it is some value > `cutoff` (not necessarily the distance).
    * Every threshold test in the algorithms goes through here, so a metric can
    * abandon an evaluation as soon as it knows the answer exceeds the cutoff.
    * The default is one full `dist` call.
    */
  def distWithin(a: T, b: T, cutoff: Double): Double = dist(a, b)
}

/** Plain Euclidean distance on dense vectors (t_dis = O(d)). */
object EuclideanMetric extends Metric[Array[Double]] {
  override def dist(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dimension mismatch: ${a.length} vs ${b.length}")
    var s  = 0.0
    var i  = 0
    val n  = a.length
    while (i < n) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Sums in the same order as [[dist]] (so an exact answer is bit-identical)
    * and compares the partial sum against cutoff² after every 8 dimensions.
    */
  override def distWithin(a: Array[Double], b: Array[Double], cutoff: Double): Double = {
    require(a.length == b.length, s"dimension mismatch: ${a.length} vs ${b.length}")
    val c2 = cutoff * cutoff
    var s  = 0.0
    var i  = 0
    val n  = a.length
    while (i + 8 <= n) {
      var d = a(i) - b(i); s += d * d
      d = a(i + 1) - b(i + 1); s += d * d
      d = a(i + 2) - b(i + 2); s += d * d
      d = a(i + 3) - b(i + 3); s += d * d
      d = a(i + 4) - b(i + 4); s += d * d
      d = a(i + 5) - b(i + 5); s += d * d
      d = a(i + 6) - b(i + 6); s += d * d
      d = a(i + 7) - b(i + 7); s += d * d
      i += 8
      if (s > c2) {
        val r = math.sqrt(s)
        if (r > cutoff) return r // sqrt rounding may land on the cutoff: keep summing then
      }
    }
    while (i < n) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }
}

/** Levenshtein edit distance — the paper's metric for the text datasets
  * (COLA, AG News, MRPC, MNLI). One two-row dynamic program serves both
  * [[dist]] (band as wide as the longer string) and [[distWithin]] (Ukkonen's
  * diagonal band of width ⌊cutoff⌋, abandoned once a whole row exceeds it).
  */
object EditDistanceMetric extends Metric[String] {
  override def dist(a: String, b: String): Double = banded(a, b, Int.MaxValue).toDouble

  override def distWithin(a: String, b: String, cutoff: Double): Double = {
    val gap = math.abs(a.length - b.length)
    if (gap > cutoff) gap.toDouble // the length gap is a lower bound
    else banded(a, b, if (cutoff >= Int.MaxValue) Int.MaxValue else cutoff.toInt).toDouble
  }

  /** Levenshtein distance if it is ≤ `kMax`, else some integer > `kMax`.
    *
    * Any edit script of cost ≤ k stays on cells with |i − j| ≤ k, so cells
    * outside that band are treated as k + 1: a cell then holds its true value
    * whenever that is ≤ k, and something > k otherwise. DP values never
    * decrease along a script and every script crosses every row, so a row
    * whose minimum exceeds k proves the distance does too. Pre: the length
    * gap is ≤ `kMax`.
    */
  private def banded(a: String, b: String, kMax: Int): Int = {
    if (a == b) return 0
    val m    = a.length
    val n    = b.length
    val k    = math.min(kMax, math.max(m, n))
    val band = k < math.max(m, n) // false: the whole table, no early exit possible
    val as   = a.toCharArray
    val bs   = b.toCharArray
    var prev = new Array[Int](n + 1)
    var cur  = new Array[Int](n + 1)
    java.util.Arrays.fill(prev, k + 1)
    java.util.Arrays.fill(cur, k + 1)
    var j = 0
    while (j <= math.min(n, k)) { prev(j) = j; j += 1 }
    var i = 1
    while (i <= m) {
      val lo = math.max(1, i - k)
      val hi = math.min(n, i + k)
      // Column lo − 1 is this row's left neighbour: column 0 or outside the band.
      cur(lo - 1) = if (lo == 1) math.min(i, k + 1) else k + 1
      val ca   = as(i - 1)
      var left = cur(lo - 1)
      var diag = prev(lo - 1)
      j = lo
      while (j <= hi) {
        val up = prev(j)
        val v  = math.min(diag + (if (ca == bs(j - 1)) 0 else 1), math.min(up, left) + 1)
        cur(j) = v
        left = v
        diag = up
        j += 1
      }
      if (band) {
        var rowMin = cur(lo - 1)
        j = lo
        while (j <= hi) { rowMin = math.min(rowMin, cur(j)); j += 1 }
        if (rowMin > k) return rowMin
      }
      val tmp = prev; prev = cur; cur = tmp
      i += 1
    }
    prev(n)
  }
}
