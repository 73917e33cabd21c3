package perfbench

import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark's footprint of one op, read from listener events: jobs, stages,
  * tasks, shuffle bytes written, task result bytes sent to the driver and
  * broadcast bytes stored, plus each job's interval.
  */
final class SparkFootprint extends SparkListener {
  private val counts    = mutable.LinkedHashMap.empty[String, Double]
  private val jobStart  = mutable.HashMap.empty[Int, Long]
  private val jobMs     = mutable.ArrayBuffer.empty[(Long, Long)]
  private val seenBlock = mutable.HashSet.empty[String]

  private def add(key: String, v: Double): Unit = counts(key) = counts.getOrElse(key, 0.0) + v

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    add("spark.jobs", 1); jobStart(e.jobId) = e.time
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach(s => jobMs += ((s, e.time)))
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    add("spark.stages", 1)
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    add("spark.tasks", 1)
    Option(e.taskMetrics).foreach { m =>
      add("spark.shuffle_write_bytes", m.shuffleWriteMetrics.bytesWritten.toDouble)
      add("spark.result_bytes", m.resultSize.toDouble)
    }
  }
  // Broadcast values travel as serialized pieces; each is stored once.
  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    val id   = info.blockId
    if (id.isBroadcast && id.name.contains("_piece") && seenBlock.add(id.name))
      add("spark.broadcast_bytes", (info.memSize + info.diskSize).toDouble)
  }

  def reset(): Unit = synchronized { counts.clear(); jobStart.clear(); jobMs.clear() }

  /** Counters since the last reset, and job intervals in ms since the epoch. */
  def snapshot(): (Map[String, Double], Seq[(Long, Long)]) = synchronized {
    (counts.toMap, jobMs.toList)
  }
}
