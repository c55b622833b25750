package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.BenchDatasets
import repro.er.{PairBatch, PairData}
import repro.eval.{MELData, MethodRunner}
import repro.linalg.Rng
import repro.text.HashEmbed

/** The benchmark times fit and score apart, so it runs each method itself
  * instead of through `MethodRunner.run`. These must stay the same methods. */
class MethodsSpec extends AnyFunSuite {
  private val dim = Workloads.dim
  private val attrs = Vector("name", "title")
  private val vocab = Vector.tabulate(30)(i => s"t$i")

  private def batch(n: Int, rng: Rng, label: Int => Double): PairBatch =
    PairBatch(attrs, dim, Array.tabulate(n) { i =>
      val matching = i % 2 == 0
      val toks1 = attrs.map(_ => Seq.fill(3)(rng.pick(vocab)).distinct).toArray
      val toks2 = toks1.map(t => if (matching) t.take(2) :+ rng.pick(vocab) else Seq.fill(3)(rng.pick(vocab)))
        .map(_.distinct)
      val feats = toks1.indices.flatMap { j =>
        val sim = toks1(j).intersect(toks2(j))
        val uni = toks1(j).diff(toks2(j)) ++ toks2(j).diff(toks1(j))
        HashEmbed.embedSum(sim, dim).toSeq ++ HashEmbed.embedSum(uni, dim)
      }.toArray
      PairData(label(i), "s1", if (i % 3 == 0) "s9" else "s2", toks1, toks2, feats)
    })

  private val data = {
    val rng = new Rng(5L)
    val lab: Int => Double = i => if (i % 2 == 0) 1.0 else 0.0
    MELData("synthetic", attrs, dim, batch(40, rng, lab), batch(10, rng, lab),
      batch(30, rng, _ => -1.0), batch(30, rng, lab))
  }
  private val cfg = BenchDatasets.adamelCfg.copy(epochs = 2)

  test("the benchmark runs the nine methods of MethodRunner.all, in order") {
    assert(Workloads.allMethods.map(_.name) == MethodRunner.all(dim, 1L, cfg).map(_.name))
  }

  test("each method gives bit-identical scores to its MethodRunner") {
    val ctx = Ctx(null, new Tracer(enabled = true), 1L, cfg)
    Workloads.allMethods.zip(MethodRunner.all(dim, 3L, cfg)).foreach { case (mine, theirs) =>
      val a = mine.fitScore(ctx, data, 3L, new Outcome)
      val b = theirs.run(data)
      assert(Checks.scoreFingerprint(a) == Checks.scoreFingerprint(b), mine.name)
    }
    val fitSpans = ctx.tracer.spans.map(_.name).filter(n => n.startsWith("core.fit.") || n.startsWith("baselines.fit."))
    assert(fitSpans.size == 9)
  }

  test("evaluate checks, fingerprints and scores every (method, seed)") {
    val ctx = Ctx(null, new Tracer(enabled = false), 1L, cfg)
    val out = new Outcome
    Workloads.evaluate(ctx, out, data, Workloads.allMethods.takeRight(1), Seq(1L, 2L))
    assert(out.attempted == 2 && out.failed == 0, out.problems)
    assert(out.fingerprints.keySet == Set("scores.AdaMEL-hyb.seed1", "scores.AdaMEL-hyb.seed2"))
    assert(out.values("core.pair_epochs") == 2 * 2 * 40.0)
    // 2 seeds x 2 epochs x (ceil(40 / 16) batch steps + 1 support step)
    assert(out.values("core.steps.AdaMEL-hyb") == 2 * 2 * (3 + 1).toDouble)
    val p = out.values("prauc.AdaMEL-hyb")
    assert(p >= 0 && p <= 1)
  }
}
