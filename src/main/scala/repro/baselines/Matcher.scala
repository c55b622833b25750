package repro.baselines

import repro.er.{PairBatch, PairData}
import repro.linalg.{AD, Adam, Mat, Rng}

/** Common interface for the supervised baselines of §5.1.
  *
  * Per the paper's experimental setup, every baseline trains only on the
  * labeled source-domain pairs (no adaptation, no support set) — that is
  * precisely the behaviour AdaMEL is compared against.
  */
trait Matcher {
  def name: String
  def fit(source: PairBatch): Unit
  def scores(batch: PairBatch): Array[Double]
}

/** Generic 2-layer MLP matcher over a per-pair feature extractor.
  *
  * All deep baselines (DeepMatcherLite, EntityMatcherLite, DittoLite,
  * CorDelLite) specialize this with their own featurization — the part the
  * respective papers differ in — while sharing the classifier and training
  * loop (class-stratified mini-batch Adam + BCE, matching the AdaMEL trainer
  * for a fair comparison). `hidden = 0` degrades to logistic regression
  * (TLER).
  */
abstract class MLPMatcher(val name: String, hidden: Int, epochs: Int, lr: Double, seed: Long,
                          weightDecay: Double = 1e-2, batchSize: Int = 16)
    extends Matcher {

  /** Per-pair feature vector; must have fixed length for a given schema. */
  def featurize(p: PairData, attrs: Vector[String]): Array[Double]

  private var w1: AD.V = _
  private var b1: AD.V = _
  private var w2: AD.V = _
  private var b2: AD.V = _
  private var trained = false

  private def featureMat(batch: PairBatch): Mat =
    Mat.fromRows(batch.pairs.toIndexedSeq.map(p => featurize(p, batch.attrs)))

  private def forward(x: Mat): AD.V = {
    val in = AD.const(x)
    if (hidden == 0) AD.addRowVec(AD.matmul(in, w2), b2)
    else {
      val h = AD.relu(AD.addRowVec(AD.matmul(in, w1), b1))
      AD.addRowVec(AD.matmul(h, w2), b2)
    }
  }

  override def fit(source: PairBatch): Unit = {
    val x = featureMat(source)
    val rng = new Rng(seed)
    val inDim = x.cols
    if (hidden == 0) {
      w1 = AD.leaf(Mat.zeros(1, 1)); b1 = AD.leaf(Mat.zeros(1, 1))
      w2 = AD.leaf(Mat.glorot(inDim, 1, rng)); b2 = AD.leaf(Mat.zeros(1, 1))
    } else {
      w1 = AD.leaf(Mat.glorot(inDim, hidden, rng)); b1 = AD.leaf(Mat.zeros(1, hidden))
      w2 = AD.leaf(Mat.glorot(hidden, 1, rng)); b2 = AD.leaf(Mat.zeros(1, 1))
    }
    val params = if (hidden == 0) Seq(w2, b2) else Seq(w1, b1, w2, b2)
    val opt = new Adam(params, lr, weightDecay = weightDecay)
    val y = source.labelCol
    val batchRng = new Rng(seed * 7 + 3)
    for (_ <- 0 until epochs) {
      // Stratified mini-batch SGD (paper baselines train with batch 16,
      // §5.1; stratification counters Monitor-style skew — same treatment
      // as the AdaMEL trainer for fairness).
      opt.minimize(repro.er.Batching.balancedBatches(source.labels, batchSize, batchRng)) { idx =>
        AD.bceWithLogits(forward(x.rowsAt(idx)), y.rowsAt(idx), Mat.fill(idx.length, 1, 1.0))
      }
    }
    trained = true
  }

  override def scores(batch: PairBatch): Array[Double] = {
    require(trained, s"$name: fit before scores")
    forward(featureMat(batch)).v.data.map(s => 1.0 / (1.0 + math.exp(-s)))
  }
}

/** Shared string-similarity helpers for featurizers. */
object Sim {
  def jaccard(a: Seq[String], b: Seq[String]): Double = {
    if (a.isEmpty && b.isEmpty) return 0.0
    val sa = a.toSet; val sb = b.toSet
    val inter = sa.intersect(sb).size.toDouble
    inter / (sa.size + sb.size - inter)
  }

  def containment(a: Seq[String], b: Seq[String]): Double =
    if (a.isEmpty) 0.0 else a.count(b.toSet).toDouble / a.size

  def bothPresent(a: Seq[String], b: Seq[String]): Double =
    if (a.nonEmpty && b.nonEmpty) 1.0 else 0.0

  def lengthRatio(a: Seq[String], b: Seq[String]): Double = {
    val m = math.max(a.size, b.size)
    if (m == 0) 1.0 else math.min(a.size, b.size).toDouble / m
  }
}
