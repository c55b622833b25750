package repro.perfbench

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `name` is `<layer>.<op>[.<detail>]`, e.g.
  * `er.collect.train` or `core.fit.AdaMEL-hyb`; `parent` is the id of the
  * enclosing span (-1 at the root); `iter` is the workload iteration the call
  * belongs to (-1 for set-up and probes). Times are `System.nanoTime`. */
final case class Span(id: Int, name: String, parent: Int, iter: Int, startNs: Long, endNs: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def durNs: Long = endNs - startNs
}

/** Records spans around the benchmark's calls into the program.
  *
  * Spans stay in memory until the run ends. The parent of a span is the
  * innermost open span of the calling thread, or an explicit `parent` for
  * work handed to another thread (a parallel Harness runs its method
  * runners on worker threads). When `enabled` is false nothing is recorded
  * and `span` only runs its body, so the untraced run pays one branch per
  * call. */
final class Tracer(val enabled: Boolean) {
  private val ids = new AtomicInteger(0)
  private val recorded = ArrayBuffer.empty[Span]
  private val open = new ThreadLocal[List[Int]] { override def initialValue(): List[Int] = Nil }
  @volatile var iter: Int = -1

  /** Id of the innermost open span on this thread (-1 if none). */
  def current: Int = open.get.headOption.getOrElse(-1)

  def span[A](name: String, parent: Int = Int.MinValue)(body: => A): A =
    if (!enabled) body
    else {
      val id = ids.getAndIncrement()
      val stack = open.get
      val p = if (parent == Int.MinValue) stack.headOption.getOrElse(-1) else parent
      val it = iter
      open.set(id :: stack)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open.set(stack)
        recorded.synchronized(recorded += Span(id, name, p, it, t0, t1))
      }
    }

  def spans: Seq[Span] = recorded.synchronized(recorded.toList).sortBy(_.id)
}

object Trace {

  /** Total length of the union of `[start, end)` intervals. Overlapping
    * intervals (children running in parallel) are counted once. */
  def unionNs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    intervals.filter(i => i._2 > i._1).sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Self time of each span: its duration minus the part of its interval
    * that its direct children cover (clipped to the span, union-merged so
    * that overlapping children are not subtracted twice). */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val covered = unionNs(children.getOrElse(s.id, Nil).map(c =>
        (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs))))
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Self time summed per layer, in seconds. */
  def selfByLayer(spans: Seq[Span]): Map[String, Double] = {
    val self = selfNs(spans)
    spans.groupBy(_.layer).map { case (layer, ss) => layer -> ss.map(s => self(s.id)).sum / 1e9 }
  }

  /** `harness_concurrency`: summed (method, seed) run spans over the wall
    * time of the Harness calls that contain them. 1.0 when runs are serial
    * and back to back; above 1 when they overlap. */
  def concurrency(runNs: Seq[Long], harnessNs: Seq[Long]): Double = {
    val h = harnessNs.sum
    if (h <= 0) 0.0 else runNs.sum.toDouble / h
  }

  def toJson(s: Span): String =
    s"""{"id":${s.id},"name":${Json.str(s.name)},"parent":${s.parent},"iter":${s.iter},"start_ns":${s.startNs},"end_ns":${s.endNs}}"""
}
