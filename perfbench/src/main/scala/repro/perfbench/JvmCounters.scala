package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.jdk.CollectionConverters._

/** JVM counters for one window of work: GC time, bytes allocated and peak
  * heap. Allocation is summed over the JVM's live threads (the driver and,
  * in local mode, Spark's executor threads); a thread that ends inside the
  * window takes its allocation with it. */
final class JvmCounters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq.filter(_.getType == MemoryType.HEAP)
  private var gcMs0 = 0L
  private var alloc0 = Map.empty[Long, Long]

  private def gcMs: Long = gcs.map(g => math.max(g.getCollectionTime, 0L)).sum

  private def allocated: Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  def reset(): Unit = {
    gcMs0 = gcMs
    alloc0 = allocated
    heapPools.foreach(_.resetPeakUsage())
  }

  def read(): Seq[(String, Double)] = {
    val alloc = allocated.map { case (id, b) => b - alloc0.getOrElse(id, 0L) }.filter(_ > 0).sum
    Seq(
      "jvm.gc_s" -> (gcMs - gcMs0) / 1e3,
      "jvm.alloc_mb" -> alloc / 1e6,
      "jvm.heap_peak_mb" -> heapPools.map(_.getPeakUsage.getUsed).sum / 1e6,
    )
  }
}
