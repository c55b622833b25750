package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.ScenarioConfig
import repro.er.{PairBatch, PairData}

class ChecksSpec extends AnyFunSuite {
  private def batch(labels: Seq[Double], dim: Int = 2, attrs: Int = 1): PairBatch =
    PairBatch(Vector.tabulate(attrs)(i => s"a$i"), dim, labels.zipWithIndex.map { case (l, i) =>
      PairData(l, "s1", "s2", Array(Seq("x")), Array(Seq("y")), Array.fill(2 * attrs * dim)(i * 0.5))
    }.toArray)

  test("split fill ratio is obtained over requested, summed over splits") {
    // Monitor S1 at seed 1: 2000 + 100 + 1754 + 1300 of 2000 + 100 + 1800 + 1300
    assert(Checks.fillRatio(Seq(2000, 100, 1754, 1300), Seq(2000, 100, 1800, 1300)) == 5154.0 / 5200)
    assert(Checks.fillRatio(Seq(5), Seq(5)) == 1.0)
    assert(Checks.fillRatio(Nil, Nil) == 0.0)
  }

  test("requested sizes follow the scenario config, by class") {
    val cfg = ScenarioConfig(nTrainPos = 100, nTrainNeg = 1900, nSupport = 100,
      nTestPos = 300, nTestNeg = 1000, nTargetExtra = 400)
    val r = Checks.requested(cfg)
    assert(r("train") == (100, 1900))
    assert(r("support") == (50, 50))
    assert(r("test") == (300, 1000))
    assert(r("target") == (400, 1400)) // test pairs + extra/4 positives + extra negatives
    assert(Checks.obtained(batch(Seq(1, 0, 0, -1))) == (1, 2, 1))
  }

  test("fingerprints are stable, order-sensitive and bit-exact") {
    val xs = Array(0.1, 0.2, 0.3)
    assert(Checks.scoreFingerprint(xs) == Checks.scoreFingerprint(xs.clone()))
    assert(Checks.scoreFingerprint(xs) != Checks.scoreFingerprint(xs.reverse))
    val nudged = xs.clone(); nudged(1) = Math.nextUp(nudged(1))
    assert(Checks.scoreFingerprint(xs) != Checks.scoreFingerprint(nudged))
    assert(Checks.scoreFingerprint(Array(0.0)) != Checks.scoreFingerprint(Array(-0.0)))
    assert(Checks.scoreFingerprint(Array.empty) != Checks.scoreFingerprint(Array(0.0)))
    assert(Checks.scoreFingerprint(xs).matches("[0-9a-f]{16}"))
    // a fixed input keeps a fixed fingerprint across JVMs and commits
    assert(Checks.scoreFingerprint(xs) == Checks.fingerprint(Iterator(0.1, 0.2, 0.3)))
    val b = batch(Seq(1, 0))
    assert(Checks.splitFingerprint(b) == Checks.splitFingerprint(batch(Seq(1, 0))))
    assert(Checks.splitFingerprint(b) != Checks.splitFingerprint(batch(Seq(0, 1))))
  }

  test("split checks catch bad labels, widths and non-finite features") {
    assert(Checks.splitProblems("train", batch(Seq(1, 0))).isEmpty)
    assert(Checks.splitProblems("target", batch(Seq(-1, -1))).isEmpty)
    assert(Checks.splitProblems("train", batch(Seq(1, -1))).nonEmpty)
    assert(Checks.splitProblems("target", batch(Seq(1))).nonEmpty)
    assert(Checks.splitProblems("test", batch(Nil)).nonEmpty)
    val b = batch(Seq(1, 0))
    val wrongWidth = b.copy(pairs = b.pairs.map(p => p.copy(features = p.features.take(1))))
    assert(Checks.splitProblems("train", wrongWidth).nonEmpty)
    val nan = b.copy(pairs = b.pairs.map(p => p.copy(features = p.features.map(_ => Double.NaN))))
    assert(Checks.splitProblems("train", nan).nonEmpty)
  }

  test("score checks want n finite scores in [0, 1]") {
    assert(Checks.scoreProblems("m", Array(0.0, 0.5, 1.0), 3).isEmpty)
    assert(Checks.scoreProblems("m", Array(0.5), 2).nonEmpty)
    assert(Checks.scoreProblems("m", Array(1.5), 1).nonEmpty)
    assert(Checks.scoreProblems("m", Array(Double.NaN), 1).nonEmpty)
  }
}
