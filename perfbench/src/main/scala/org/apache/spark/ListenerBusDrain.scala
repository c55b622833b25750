package org.apache.spark

/** Waits until every queued listener event has been delivered, so counters
  * read after an action include all of that action's task and stage events.
  * The bus is private to Spark; this object lives in Spark's package to
  * reach it. */
object ListenerBusDrain {
  def apply(sc: SparkContext, timeoutMs: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
