package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {
  private def span(id: Int, parent: Int, s: Long, e: Long, name: String = "x.op") =
    Span(id, name, parent, 0, s, e)

  test("union of intervals counts overlapping parts once") {
    assert(Trace.unionNs(Nil) == 0L)
    assert(Trace.unionNs(Seq(0L -> 10L, 20L -> 30L)) == 20L)
    assert(Trace.unionNs(Seq(0L -> 10L, 5L -> 15L)) == 15L)
    assert(Trace.unionNs(Seq(5L -> 15L, 0L -> 10L, 12L -> 14L)) == 15L)
    assert(Trace.unionNs(Seq(0L -> 10L, 10L -> 20L)) == 20L)
    assert(Trace.unionNs(Seq(0L -> 100L, 10L -> 20L)) == 100L)
  }

  test("self time subtracts nested children, not grandchildren") {
    // root [0,100) > child [10,40) > grandchild [20,30); child [50,60)
    val ss = Seq(span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 1, 20, 30), span(3, 0, 50, 60))
    val self = Trace.selfNs(ss)
    assert(self == Map(0 -> 60L, 1 -> 20L, 2 -> 10L, 3 -> 10L))
    assert(self.values.sum == 100L) // self times partition the root
  }

  test("overlapping children (a parallel Harness) are subtracted once") {
    // harness [0,100) runs two (method, seed) runs that overlap: [0,80) and [20,100)
    val ss = Seq(span(0, -1, 0, 100, "eval.harness"), span(1, 0, 0, 80, "eval.run.a"),
      span(2, 0, 20, 100, "eval.run.a"))
    val self = Trace.selfNs(ss)
    assert(self(0) == 0L)
    assert(Trace.concurrency(Seq(80L, 80L), Seq(100L)) == 1.6)
  }

  test("children reaching outside the parent are clipped to it") {
    val ss = Seq(span(0, -1, 10, 20), span(1, 0, 0, 15))
    assert(Trace.selfNs(ss)(0) == 5L)
  }

  test("self time is summed per layer") {
    val ss = Seq(span(0, -1, 0, 100, "bench.iteration"), span(1, 0, 0, 70, "er.collect.train"),
      span(2, 0, 70, 90, "core.fit.AdaMEL-hyb"))
    val byLayer = Trace.selfByLayer(ss)
    assert(byLayer == Map("bench" -> 10e-9, "er" -> 70e-9, "core" -> 20e-9))
  }

  test("harness concurrency is 1.0 for back-to-back serial runs") {
    assert(Trace.concurrency(Seq(30L, 70L), Seq(100L)) == 1.0)
    assert(Trace.concurrency(Nil, Nil) == 0.0)
  }

  test("tracer nests spans per thread and honours an explicit parent") {
    val t = new Tracer(enabled = true)
    t.iter = 3
    t.span("a.outer") {
      val outer = t.current
      t.span("b.inner")(())
      val th = new Thread(() => t.span("c.worker", parent = outer)(()))
      th.start(); th.join()
    }
    val ss = t.spans
    val outer = ss.find(_.name == "a.outer").get
    assert(outer.parent == -1 && outer.iter == 3)
    assert(ss.find(_.name == "b.inner").get.parent == outer.id)
    assert(ss.find(_.name == "c.worker").get.parent == outer.id)
    assert(t.current == -1)
  }

  test("a disabled tracer records nothing but still runs the body") {
    val t = new Tracer(enabled = false)
    assert(t.span("a.op")(41 + 1) == 42)
    assert(t.spans.isEmpty)
  }
}
