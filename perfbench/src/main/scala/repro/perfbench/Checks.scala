package repro.perfbench

import repro.data.ScenarioConfig
import repro.er.PairBatch

/** Output checks, fingerprints and split-size accounting, all computed from
  * outside the program on what its public functions return. */
object Checks {
  val Splits: Seq[String] = Seq("train", "support", "target", "test")

  /** Problems with one collected split, empty when it is well formed:
    * labels in {0, 1} (or -1 on the unlabeled target split), features of
    * length F x D, every value finite. */
  def splitProblems(split: String, b: PairBatch): Seq[String] = {
    val width = b.numFeatures * b.dim
    val okLabel: Double => Boolean =
      if (split == "target") _ == -1.0 else l => l == 0.0 || l == 1.0
    Seq(
      if (b.n == 0) Some(s"$split: no rows") else None,
      b.pairs.find(p => !okLabel(p.label)).map(p => s"$split: label ${p.label}"),
      b.pairs.find(_.features.length != width)
        .map(p => s"$split: ${p.features.length} features, expected $width"),
      b.pairs.find(_.features.exists(x => x.isNaN || x.isInfinite)).map(_ => s"$split: non-finite feature"),
    ).flatten
  }

  /** Problems with one score vector, empty when all `n` scores are finite
    * and in [0, 1]. */
  def scoreProblems(what: String, scores: Array[Double], n: Int): Seq[String] = Seq(
    if (scores.length != n) Some(s"$what: ${scores.length} scores for $n pairs") else None,
    scores.find(s => !(s >= 0.0 && s <= 1.0)).map(s => s"$what: score $s outside [0, 1]"),
  ).flatten

  private def mix64(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Order-sensitive 64-bit fingerprint of the exact bits of `xs`. Equal
    * fingerprints mean (with overwhelming probability) bit-identical
    * values, which is what a change that keeps the arithmetic must show. */
  def fingerprint(xs: Iterator[Double]): String = {
    var h = 0x5DEECE66DL
    var n = 0L
    xs.foreach { x => h = mix64(h ^ java.lang.Double.doubleToRawLongBits(x)); n += 1 }
    f"${mix64(h ^ n)}%016x"
  }

  /** Fingerprint of a split: its labels, then its features row by row. */
  def splitFingerprint(b: PairBatch): String =
    fingerprint(b.pairs.iterator.map(_.label) ++ b.pairs.iterator.flatMap(_.features.iterator))

  def scoreFingerprint(scores: Array[Double]): String = fingerprint(scores.iterator)

  /** Rows a split was asked for, by class, as [[repro.data.Scenarios.buildSplit]]
    * draws them from the config. The target split is unlabeled: its
    * positives and negatives are the test pairs plus the extra samples. */
  def requested(cfg: ScenarioConfig): Map[String, (Int, Int)] = Map(
    "train" -> (cfg.nTrainPos, cfg.nTrainNeg),
    "support" -> (cfg.nSupport / 2, cfg.nSupport / 2),
    "target" -> (cfg.nTestPos + cfg.nTargetExtra / 4, cfg.nTestNeg + cfg.nTargetExtra),
    "test" -> (cfg.nTestPos, cfg.nTestNeg),
  )

  /** Rows obtained, by class (positives, negatives, unlabeled). */
  def obtained(b: PairBatch): (Int, Int, Int) = {
    val l = b.labels
    (l.count(_ == 1.0), l.count(_ == 0.0), l.count(_ == -1.0))
  }

  /** Rows obtained over rows requested, summed over the splits. */
  def fillRatio(obtainedRows: Seq[Int], requestedRows: Seq[Int]): Double = {
    val req = requestedRows.sum
    if (req == 0) 0.0 else obtainedRows.sum.toDouble / req
  }
}
