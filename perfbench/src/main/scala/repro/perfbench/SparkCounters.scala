package repro.perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Spark engine counters for one window of work (one iteration), taken by a
  * listener the benchmark registers. Nothing in the program is changed. */
final class SparkCounters(spark: SparkSession) extends SparkListener {
  private var jobs = 0
  private var stages = 0
  private var tasks = 0
  private var singleTaskStages = 0
  private var taskNs = 0L
  private var shuffleWrite = 0L
  private var shuffleRead = 0L
  // per stage attempt: (summed task time, longest task time)
  private val perStage = mutable.Map.empty[(Int, Int), (Long, Long)]

  spark.sparkContext.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stages += 1
    if (e.stageInfo.numTasks == 1) singleTaskStages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val dur = math.max(e.taskInfo.duration, 0L) * 1000000L
    taskNs += dur
    val m = e.taskMetrics
    if (m != null) {
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
    }
    val k = (e.stageId, e.stageAttemptId)
    val (sum, mx) = perStage.getOrElse(k, (0L, 0L))
    perStage(k) = (sum + dur, math.max(mx, dur))
  }

  /** Drains pending events, then zeroes the counters. */
  def reset(): Unit = {
    ListenerBusDrain(spark.sparkContext)
    synchronized {
      jobs = 0; stages = 0; tasks = 0; singleTaskStages = 0
      taskNs = 0L; shuffleWrite = 0L; shuffleRead = 0L; perStage.clear()
    }
  }

  /** Drains pending events and returns the counters since the last reset.
    * `wallS` and `cores` turn busy time into a utilisation ratio. */
  def read(wallS: Double, cores: Int): Seq[(String, Double)] = {
    ListenerBusDrain(spark.sparkContext)
    synchronized {
      val busyS = taskNs / 1e9
      val maxShare = perStage.values.collect { case (sum, mx) if sum > 0 => mx.toDouble / sum }
      Seq(
        "spark.jobs" -> jobs.toDouble,
        "spark.stages" -> stages.toDouble,
        "spark.tasks" -> tasks.toDouble,
        "spark.task_busy_s" -> busyS,
        "spark.core_busy_ratio" -> (if (wallS > 0) busyS / (wallS * cores) else 0.0),
        "spark.shuffle_write_mb" -> shuffleWrite / 1e6,
        "spark.shuffle_read_mb" -> shuffleRead / 1e6,
        "spark.single_task_stages" -> singleTaskStages.toDouble,
        "spark.max_task_share" -> (if (maxShare.isEmpty) 0.0 else maxShare.max),
      )
    }
  }
}
