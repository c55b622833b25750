package repro.perfbench

import repro.core.{AdaMEL, AdaMELConfig}
import repro.er.PairBatch
import repro.linalg.{AD, Adam, Mat, Rng}
import repro.text.{HashEmbed, Tokenizer}

/** Micro-timings of the `repro.linalg` and `repro.text` operations, at the
  * shapes AdaMEL uses, through their public functions only. */
object Micro {
  /** Written with each timed result so the JIT cannot drop the work. */
  @volatile var sink: Double = 0.0

  /** Median over `batches` of the time per call of `body`, in microseconds.
    * Each batch repeats `body` until at least `batchMs` have passed, after a
    * warm-up batch that is not counted. */
  def perCallUs(batches: Int = 5, batchMs: Double = 40.0)(body: => Unit): Double = {
    def batch(): Double = {
      var n = 0
      val t0 = System.nanoTime()
      var t = t0
      while ((t - t0) / 1e6 < batchMs) { body; n += 1; t = System.nanoTime() }
      (t - t0) / 1e3 / n
    }
    batch()
    median(Seq.fill(batches)(batch()))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** `linalg.*` at batch 16, D = `dim`, F features and the config's H, H'
    * and hidden widths. */
  def linalg(cfg: AdaMELConfig, dim: Int, featureNames: Vector[String]): Seq[(String, Double)] = {
    val rng = new Rng(11L)
    val b = cfg.batchSize
    val f = featureNames.length
    def rand(r: Int, c: Int): Mat = Mat.glorot(r, c, rng)
    val x = rand(b, dim); val v = rand(dim, cfg.h)
    val z = rand(b, f * cfg.h); val w1 = rand(f * cfg.h, cfg.hidden)
    val g = rand(b, cfg.h)

    val affine = perCallUs() { sink += (x %*% v).data(0) }
    val classifier = perCallUs() { sink += (z %*% w1).data(0) }
    // the left-operand gradient of the affine layer, as AD.matmul forms it
    val gradLeft = perCallUs() { sink += (g %*% v.t).data(0) }
    val transpose = perCallUs() { sink += v.t.data(0) }

    // One AdaMEL-shaped training graph built from public AD ops; backward
    // re-zeroes every gradient first, so repeating it repeats the same work.
    val feats = Array.fill(f)(rand(b, dim))
    val vs = Array.fill(f)(AD.leaf(rand(dim, cfg.h)))
    val bs = Array.fill(f)(AD.leaf(Mat.zeros(1, cfg.h)))
    val w = AD.leaf(rand(cfg.h, cfg.hPrime)); val a = AD.leaf(rand(cfg.hPrime, 1))
    val pw1 = AD.leaf(rand(f * cfg.h, cfg.hidden)); val pb1 = AD.leaf(Mat.zeros(1, cfg.hidden))
    val pw2 = AD.leaf(rand(cfg.hidden, 1)); val pb2 = AD.leaf(Mat.zeros(1, 1))
    val xs = Array.tabulate(f)(j => AD.relu(AD.addRowVec(AD.matmul(AD.leaf(feats(j)), vs(j)), bs(j))))
    val att = AD.softmaxRows(AD.hcat(xs.toIndexedSeq.map(xj => AD.matmul(AD.tanh(AD.matmul(xj, w)), a))))
    val zs = Array.tabulate(f)(j => AD.relu(AD.mulColVec(xs(j), AD.colSlice(att, j))))
    val hid = AD.relu(AD.addRowVec(AD.matmul(AD.hcat(zs.toIndexedSeq), pw1), pb1))
    val logits = AD.addRowVec(AD.matmul(hid, pw2), pb2)
    val y = Mat.colVec(Array.tabulate(b)(i => (i % 2).toDouble))
    val loss = AD.bceWithLogits(logits, y, Mat.fill(b, 1, 1.0))
    val backward = perCallUs() { AD.backward(loss); sink += vs(0).grad.data(0) }

    val model = new AdaMEL(cfg, dim, featureNames)
    val opt = new Adam(model.parameters, cfg.lr, weightDecay = cfg.weightDecay)
    val adam = perCallUs() { opt.step() }

    Seq(
      "linalg.matmul_us.affine" -> affine,
      "linalg.matmul_us.classifier" -> classifier,
      "linalg.matmul_us.grad_left" -> gradLeft,
      "linalg.transpose_us" -> transpose,
      "linalg.backward_us" -> backward,
      "linalg.adam_step_us" -> adam,
    )
  }

  /** `text.*`: `Tokenizer.tokenSet` per attribute value of the generated
    * records, and `HashEmbed.embedSum` per sim/uni token set of a collected
    * batch (the sets the Spark pipeline embeds). */
  def text(values: Seq[String], batch: PairBatch): Seq[(String, Double)] = {
    val vals = values.take(20000).toArray
    val tokenSet = perCallUs() { vals.foreach(v => sink += Tokenizer.tokenSet(v).size) } / math.max(vals.length, 1)
    val sets = batch.pairs.iterator.flatMap { p =>
      p.toks1.indices.iterator.flatMap { j =>
        val t1 = p.toks1(j); val t2 = p.toks2(j)
        Iterator(t1.intersect(t2), t1.diff(t2) ++ t2.diff(t1))
      }
    }.take(20000).toArray
    val embedSum = perCallUs() { sets.foreach(s => sink += HashEmbed.embedSum(s, batch.dim).length) } /
      math.max(sets.length, 1)
    Seq("text.token_set_us" -> tokenSet, "text.embed_sum_us" -> embedSum)
  }
}
