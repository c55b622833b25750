package repro.core

import repro.er.{Batching, PairBatch}
import repro.linalg.{AD, Adam, Mat, Rng}

/** Which loss the model trains with (paper §4.4). */
sealed trait Variant { def name: String }
object Variant {
  /** Eq. (8): cross-entropy on labeled source pairs only. */
  case object Base extends Variant { val name = "AdaMEL-base" }
  /** Eq. (9)-(10): + unsupervised domain adaptation (KL to the target-domain
    * average attention vector). */
  case object Zero extends Variant { val name = "AdaMEL-zero" }
  /** Eq. (11)-(13): + centroid-distance-weighted CE over the labeled support set. */
  case object Few extends Variant { val name = "AdaMEL-few" }
  /** Eq. (14): both adaptation terms. */
  case object Hyb extends Variant { val name = "AdaMEL-hyb" }
  val all: Seq[Variant] = Seq(Base, Zero, Few, Hyb)
}

/** Hyperparameters. Defaults are the paper's §5.1 values scaled to the
  * CPU-driver substrate (see DESIGN.md §5); λ and φ are kept at the paper's
  * 0.98 / 1.0.
  *
  * @param featureIdx optional subset of feature indices to train on —
  *                   used by the Table 5 (attribute subsets) and Table 6
  *                   (shared/unique ablation) experiments.
  */
final case class AdaMELConfig(
    variant: Variant = Variant.Hyb,
    h: Int = 16,
    hPrime: Int = 32,
    hidden: Int = 32,
    epochs: Int = 60,
    batchSize: Int = 16, // paper §5.1
    lr: Double = 1e-2,
    lambda: Double = 0.98,
    phi: Double = 1.0,
    weightDecay: Double = 1e-2,
    seed: Long = 7L,
    featureIdx: Option[Seq[Int]] = None,
)

/** AdaMEL (paper §4): attribute-level attention over contrastive relational
  * features, trained with one of four domain-adaptation losses.
  *
  * Forward pass, batched over N pairs (Eq. 4-7):
  * {{{
  *   X_j = relu(H_j V_j + b_j)            // N x H   per-feature affine
  *   E_j = tanh(X_j W) a                  // N x 1   energy (shared W, a)
  *   G   = softmax_rows([E_1 .. E_F])     // N x F   attention = knowledge K
  *   Z_j = relu(g_j ⊙ X_j)                // N x H   gated features
  *   s   = MLP([Z_1 .. Z_F])              // N x 1   logits; ŷ = sigmoid(s)
  * }}}
  *
  * Training is mini-batch Adam over class-stratified source batches of
  * `batchSize` pairs (paper §5.1: batch 16), plus one support step per
  * epoch for Few/Hyb. The target-domain average attention (Eq. 10) and the
  * support-set weights (Eq. 12) are recomputed each epoch from the current
  * parameters, exactly as Algorithms 1-3 do per epoch.
  */
final class AdaMEL(val config: AdaMELConfig, val dim: Int, allFeatureNames: Vector[String]) {
  import config._

  private val fIdx: Array[Int] =
    featureIdx.map(_.toArray).getOrElse(allFeatureNames.indices.toArray)
  val numFeatures: Int = fIdx.length
  val featureNames: Vector[String] = fIdx.map(allFeatureNames).toVector

  private val rng = new Rng(seed)
  // Parameters (paper §4.5): per-feature V_j (D x H), b_j (1 x H); shared
  // W (H x H'), a (H' x 1); classifier Θ: W1 (F*H x hidden), b1, W2, b2.
  private val vs = Array.fill(numFeatures)(AD.leaf(Mat.glorot(dim, h, rng)))
  private val bs = Array.fill(numFeatures)(AD.leaf(Mat.zeros(1, h)))
  private val w = AD.leaf(Mat.glorot(h, hPrime, rng))
  private val a = AD.leaf(Mat.glorot(hPrime, 1, rng))
  private val w1 = AD.leaf(Mat.glorot(numFeatures * h, hidden, rng))
  private val b1 = AD.leaf(Mat.zeros(1, hidden))
  private val w2 = AD.leaf(Mat.glorot(hidden, 1, rng))
  private val b2 = AD.leaf(Mat.zeros(1, 1))

  def parameters: Seq[AD.V] = (vs ++ bs ++ Seq(w, a, w1, b1, w2, b2)).toSeq
  def parameterCount: Long = parameters.map(_.v.size.toLong).sum

  private def selFeats(batch: PairBatch): Array[Mat] = fIdx.map(batch.feats)

  /** Differentiable forward pass: (attention G, logits s). The input
    * matrices enter as constants, so backward never forms their gradient. */
  private def forward(feats: Array[Mat]): (AD.V, AD.V) = {
    val xs = Array.tabulate(numFeatures) { j =>
      AD.relu(AD.addRowVec(AD.matmul(AD.const(feats(j)), vs(j)), bs(j)))
    }
    val es = xs.map(x => AD.matmul(AD.tanh(AD.matmul(x, w)), a))
    val g = AD.softmaxRows(AD.hcat(es.toIndexedSeq))
    val zs = Array.tabulate(numFeatures)(j => AD.relu(AD.mulColVec(xs(j), AD.colSlice(g, j))))
    val zcat = AD.hcat(zs.toIndexedSeq)
    val hid = AD.relu(AD.addRowVec(AD.matmul(zcat, w1), b1))
    val s = AD.addRowVec(AD.matmul(hid, w2), b2)
    (g, s)
  }

  /** Detached (no-tape-reuse) forward for inference / statistics: returns
    * (attention N x F, match probability N x 1). */
  def forwardPlain(batch: PairBatch): (Mat, Mat) = {
    val (g, s) = forward(selFeats(batch))
    (g.v, s.v.map(x => 1.0 / (1.0 + math.exp(-x))))
  }

  def scores(batch: PairBatch): Array[Double] = forwardPlain(batch)._2.data

  /** Attention averaged over a batch — the learned feature importance
    * reported in Table 4. Sums to 1. */
  def attention(batch: PairBatch): Array[Double] = forwardPlain(batch)._1.colMean.data

  def attentionReport(batch: PairBatch, topK: Int = 5): Seq[(String, Double)] =
    featureNames.zip(attention(batch)).sortBy(-_._2).take(topK)

  private def euclid(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Train per the configured variant.
    *
    * @param source labeled source-domain pairs (D_S)
    * @param target unlabeled target-domain pairs (D_T); required by Zero/Hyb
    * @param support labeled support set (S_U); required by Few/Hyb
    * @return per-epoch total loss (for convergence tests)
    */
  def fit(source: PairBatch, target: Option[PairBatch] = None,
          support: Option[PairBatch] = None): Seq[Double] = {
    require(variant == Variant.Base || variant == Variant.Few || target.nonEmpty,
      s"${variant.name} requires the unlabeled target domain")
    require(variant == Variant.Base || variant == Variant.Zero || support.nonEmpty,
      s"${variant.name} requires the labeled support set")

    val srcFeats = selFeats(source)
    val tgtFeats = target.map(selFeats)
    val supFeats = support.map(selFeats)
    val ySrc = source.labelCol
    val opt = new Adam(parameters, lr, weightDecay = weightDecay)
    val epochRng = new Rng(seed * 31 + 17) // batch shuffling stream
    val losses = Vector.newBuilder[Double]

    // Per-epoch estimate sizes: the paper notes the target average may be
    // computed over *batches* of the unlabeled data ("the unlabeled data
    // could also come in batches", §4.4.1); a few hundred rows estimate a
    // F-dim mean tightly and cut the per-epoch cost several-fold.
    val EstimateRows = 400
    // Source rows by class, for the Eq. (11) centroids.
    val allPos = source.pairs.indices.filter(i => source.labels(i) == 1.0)
    val allNeg = source.pairs.indices.filter(i => source.labels(i) == 0.0)

    /** (attention, L_base) on the source rows `idx`, uniformly weighted. */
    def sourceBce(idx: Array[Int]): (AD.V, AD.V) = {
      val (g, s) = forward(srcFeats.map(_.rowsAt(idx)))
      (g, AD.bceWithLogits(s, ySrc.rowsAt(idx), Mat.fill(idx.length, 1, 1.0)))
    }

    for (_ <- 0 until epochs) {
      // Eq. (10): attention averaged over (a batch of) D_T with *current*
      // parameters, detached (Algorithm 1 line 5, before the batch loop).
      val targetAvg: Option[Mat] = tgtFeats.map { tf =>
        val n = tf.head.rows
        val sub = if (n <= EstimateRows) tf
          else { val idx = epochRng.sampleIndices(n, EstimateRows); tf.map(_.rowsAt(idx)) }
        val (gT, _) = forward(sub) // value only; no backward through this tape
        gT.v.colMean
      }

      // Eq. (11)-(12): centroids of source attention, support weights —
      // estimated on a stratified source subsample for the same reason.
      val supportWeights: Option[Mat] = supFeats.map { sf =>
        def sub(idx: Seq[Int]): Seq[Int] =
          if (idx.size <= EstimateRows / 2) idx
          else epochRng.shuffle(idx).take(EstimateRows / 2)
        val subPos = sub(allPos)
        val subNeg = sub(allNeg)
        val gS = forward(srcFeats.map(_.rowsAt((subPos ++ subNeg).toArray)))._1.v
        val pos = subPos.indices
        val neg = subPos.size until subPos.size + subNeg.size
        def centroid(idx: Seq[Int]): Array[Double] = {
          val c = new Array[Double](numFeatures)
          idx.foreach { i => var j = 0; while (j < numFeatures) { c(j) += gS(i, j); j += 1 } }
          if (idx.nonEmpty) { var j = 0; while (j < numFeatures) { c(j) /= idx.size; j += 1 } }
          c
        }
        val cPos = centroid(pos); val cNeg = centroid(neg)
        def meanDist(idx: Seq[Int], c: Array[Double]): Double =
          if (idx.isEmpty) 1.0
          else math.max(idx.map(i => euclid(Array.tabulate(numFeatures)(gS(i, _)), c)).sum / idx.size, 1e-6)
        val dPos = meanDist(pos, cPos); val dNeg = meanDist(neg, cNeg)
        val gSup = forward(sf)._1.v
        val sup = support.get
        // Eq. (12) weights d/d̄, clipped: when the source attention collapses
        // toward a point, d̄ -> 0 and unclipped ratios explode, making the
        // support loss fit a handful of outliers (observed on Monitor).
        Mat.colVec(Array.tabulate(sup.n) { i =>
          val fi = Array.tabulate(numFeatures)(gSup(i, _))
          val r = if (sup.labels(i) == 1.0) euclid(fi, cPos) / dPos else euclid(fi, cNeg) / dNeg
          math.min(math.max(r, 0.1), 10.0)
        })
      }

      // Mini-batch steps over D_S (paper batch learning, §4.4.1 / line 7 of
      // Algorithms 1-3): per-batch loss is L_base (Base/Few) or L_un
      // (Zero/Hyb) with the epoch-frozen target average driving the KL.
      // Batches are class-stratified (see Batching) against Monitor-style
      // skew; weights inside a batch are therefore uniform.
      val batchLosses = opt.minimize(Batching.balancedBatches(source.labels, batchSize, epochRng)) { idx =>
        val (gSrc, lBase) = sourceBce(idx)
        variant match {
          case Variant.Base | Variant.Few => lBase
          case Variant.Zero | Variant.Hyb =>
            AD.add(AD.scale(lBase, 1.0 - lambda), AD.scale(AD.klToConst(gSrc, targetAvg.get), lambda))
        }
      }

      // Support step ONCE per epoch, after the batch loop — exactly where
      // Algorithm 2/3 place lines 9-12, and with L_ssl = L_base + φ·L_support
      // (line 10): the base term anchors the step so the support gradient
      // cannot undo source learning. (Folding φ·L_support into every
      // mini-batch instead trains the 100 support pairs two orders of
      // magnitude harder than any source pair and anti-generalizes.)
      val supportLosses = supportWeights.toSeq.flatMap { wts =>
        // Anchor batch sized to the support set, so the two CE terms in
        // L_ssl carry comparable evidence (a 16-row anchor against 100
        // support rows lets the support gradient dominate the step).
        val anchorSize = math.max(batchSize, support.get.n)
        opt.minimize(Batching.balancedBatches(source.labels, anchorSize, epochRng).take(1)) { idx =>
          val (_, sSup) = forward(supFeats.get)
          AD.add(sourceBce(idx)._2, AD.scale(AD.bceWithLogits(sSup, support.get.labelCol, wts), phi))
        }
      }
      losses += (batchLosses ++ supportLosses).sum / math.max(batchLosses.size, 1)
    }
    losses.result()
  }
}

object AdaMEL {
  /** Convenience: build + fit in one call. */
  def fitted(config: AdaMELConfig, source: PairBatch,
             target: Option[PairBatch] = None, support: Option[PairBatch] = None): AdaMEL = {
    val m = new AdaMEL(config, source.dim, source.featureNames)
    m.fit(source, target, support)
    m
  }
}
