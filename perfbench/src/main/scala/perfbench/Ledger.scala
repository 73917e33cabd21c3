package perfbench

import org.apache.spark.util.LongAccumulator
import repro.core.Metric

/** A running count of distance evaluations. */
trait CallCounter {
  def calls: Long
}

/** Distance-evaluation ledger for the single-threaded core algorithms: a
  * `Metric` that forwards every call and counts it.
  */
final class CountingMetric[T](inner: Metric[T]) extends Metric[T] with CallCounter {
  private var n = 0L
  def calls: Long = n
  override def dist(a: T, b: T): Double = { n += 1; inner.dist(a, b) }
}

/** The same ledger for Spark: copies of the metric shipped to executors add
  * to a `LongAccumulator`, and calls made on the driver add to it directly.
  */
final class AccumulatingMetric[T](inner: Metric[T], acc: LongAccumulator)
    extends Metric[T] with CallCounter {
  def calls: Long = acc.value
  override def dist(a: T, b: T): Double = { acc.add(1L); inner.dist(a, b) }
}
