package org.apache.spark

/** Waits until every posted listener event has been delivered. Spark keeps
  * the listener bus package-private; the benchmark needs this to attribute
  * each job, stage, task and block event to the op that caused it.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
