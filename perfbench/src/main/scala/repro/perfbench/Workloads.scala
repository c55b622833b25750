package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}
import repro.baselines._
import repro.bench.BenchDatasets
import repro.core.{AdaMEL, AdaMELConfig, Variant}
import repro.data._
import repro.er.{Blocking, FeaturePipeline, PairBatch, Pairing}
import repro.eval.{Harness, MELData, Metrics, MethodRunner}
import scala.collection.concurrent.TrieMap
import scala.collection.mutable

/** What one run shares with its workload: the session, the tracer, the
  * workload seed and the AdaMEL config the fits use. */
final case class Ctx(spark: SparkSession, tracer: Tracer, seed: Long, adamelCfg: AdaMELConfig) {
  def span[A](name: String)(body: => A): A = tracer.span(name)(body)
}

/** Results of one iteration (or of set-up) that do not come from spans. */
final class Outcome {
  val values = mutable.LinkedHashMap.empty[String, Double]
  val fingerprints = mutable.LinkedHashMap.empty[String, String]
  val problems = mutable.ArrayBuffer.empty[String]
  val splitSizes = mutable.LinkedHashMap.empty[String, Map[String, Int]]
  var attempted = 0
  var failed = 0
  var prepPairs = 0
  var prepNs = 0L
  var requestedRows = 0
  var obtainedRows = 0

  /** Adds `x` to value `key`; safe from Harness worker threads. */
  def add(key: String, x: Double): Unit = synchronized(values(key) = values.getOrElse(key, 0.0) + x)

  def set(key: String, x: Double): Unit = synchronized(values(key) = x)

  /** Counts one operation; it fails if it threw or `problems` is non-empty. */
  def op(what: String)(body: => Seq[String]): Unit = {
    attempted += 1
    val found = try body catch { case e: Exception => Seq(s"$what: ${e.getClass.getSimpleName}: ${e.getMessage}") }
    if (found.nonEmpty) { failed += 1; problems ++= found }
  }
}

/** A workload: records generated from the seed in `setup`, then repeated
  * `iteration`s, each timed from outside. The Monitor S1 or Music-3K
  * scenario is prepped (planned and collected) either once in set-up or in
  * every iteration; `methods` are then evaluated at `seeds(workload seed)`. */
final class Workload(val name: String, makeRecords: Long => Seq[Rec], etype: Option[String],
                     seen: Set[String], val scenario: ScenarioConfig, attrs: Seq[String],
                     prepInSetup: Boolean, methods: Seq[Workloads.Method], seeds: Long => Seq[Long]) {
  import Workloads._
  var records: Seq[Rec] = Nil
  private var data: MELData = _

  /** A collected train split, for `text.embed_sum_us`. */
  def sampleBatch: PairBatch = data.train

  /** A fresh records DataFrame with the generated content, so nothing the
    * program caches on an earlier DataFrame can serve this one. */
  def freshRecords(ctx: Ctx): DataFrame = ctx.span("data.to_df") {
    val df = RecordsDF.toDF(ctx.spark, records)
    etype.fold(df)(t => df.where(F.col("etype") === t))
  }

  def setup(ctx: Ctx, out: Outcome): Unit = {
    records = ctx.span("data.generate")(makeRecords(ctx.seed))
    if (prepInSetup) data = prep(ctx, out, freshRecords(ctx), seen, scenario, attrs, name)
  }

  def iteration(ctx: Ctx, out: Outcome): Unit = {
    if (!prepInSetup) data = prep(ctx, out, freshRecords(ctx), seen, scenario, attrs, name)
    if (methods.nonEmpty) evaluate(ctx, out, data, methods, seeds(ctx.seed))
  }
}

object Workloads {
  val names: Seq[String] = Seq("monitor-prep", "monitor-fit", "music-e2e")

  val dim: Int = BenchDatasets.dim

  // BenchDatasets' generator configs; workload seed 1 gives exactly its data.
  def monitorRecords(seed: Long): Seq[Rec] =
    MonitorGen.generate(MonitorConfig(nMonitors = 320, seed = 99 + seed - 1))
  def musicRecords(seed: Long): Seq[Rec] =
    MusicGen.generate(MusicConfig(nArtists = 260, seed = 42 + seed - 1))

  val monitorScenario: ScenarioConfig = BenchDatasets.monitorScenario(disjoint = false)
  /** BenchDatasets' Music-3K overlapping scenario (private there). */
  val musicScenario: ScenarioConfig = ScenarioConfig(
    nTrainPos = 130, nTrainNeg = 250, nSupport = 100, nTestPos = 200, nTestNeg = 340,
    nTargetExtra = 300, disjoint = false, blockAttr = "name", seed = 13L)

  /** Plans the scenario and collects its four splits through the feature
    * pipeline, one `collectBatch` per split (what `MELData.collect` does),
    * then builds the driver-side feature matrices. Checks each split. */
  def prep(ctx: Ctx, out: Outcome, df: DataFrame, seen: Set[String], cfg: ScenarioConfig,
           attrs: Seq[String], label: String): MELData = {
    val s = ctx.span("data.scenario_plan")(Scenarios.build(df, seen, cfg))
    val frames = Seq("train" -> s.train, "support" -> s.support, "target" -> s.target, "test" -> s.test)
    val batches = frames.map { case (split, frame) =>
      val t0 = System.nanoTime()
      val b = ctx.span(s"er.collect.$split")(FeaturePipeline.collectBatch(frame, attrs, dim))
      out.prepNs += System.nanoTime() - t0
      split -> b
    }.toMap
    ctx.span("er.batch_feats")(batches.values.foreach(_.feats))
    val req = Checks.requested(cfg)
    Checks.Splits.foreach { split =>
      val b = batches(split)
      out.op(s"collect $split")(Checks.splitProblems(split, b))
      out.fingerprints(s"split.$split") = Checks.splitFingerprint(b)
      val (pos, neg, unl) = Checks.obtained(b)
      val (rPos, rNeg) = req(split)
      out.splitSizes(split) = Map("requested_pos" -> rPos, "requested_neg" -> rNeg,
        "obtained_pos" -> pos, "obtained_neg" -> neg, "obtained_unlabeled" -> unl)
      out.prepPairs += b.n
      out.requestedRows += rPos + rNeg
      out.obtainedRows += b.n
      out.values(s"er.rows.$split") = b.n
      out.values(s"er.fill_ratio.$split") = b.n.toDouble / (rPos + rNeg)
    }
    out.values("er.collected_mb") =
      batches.values.map(b => b.n.toDouble * b.numFeatures * b.dim * 8).sum / 1e6
    MELData(label, attrs.toVector, dim, batches("train"), batches("support"), batches("target"), batches("test"))
  }

  /** One method at one seed, fit and score timed apart. Each mirrors the
    * runner of the same name in `MethodRunner.all`; the bench test suite
    * checks that both give bit-identical scores. */
  sealed trait Method {
    def name: String
    def layer: String
    /** Fits on what the method may see, records its stats, returns test scores. */
    def fitScore(ctx: Ctx, data: MELData, seed: Long, out: Outcome): Array[Double]
  }

  final case class Baseline(name: String, make: Long => Matcher) extends Method {
    val layer = "baselines"
    def fitScore(ctx: Ctx, data: MELData, seed: Long, out: Outcome): Array[Double] = {
      val m = make(seed)
      ctx.span(s"baselines.fit.$name")(m.fit(data.train))
      ctx.span(s"baselines.score.$name")(m.scores(data.test))
    }
  }

  final case class AdaMELVariant(variant: Variant) extends Method {
    val name: String = variant.name
    val layer = "core"
    def fitScore(ctx: Ctx, data: MELData, seed: Long, out: Outcome): Array[Double] = {
      val cfg = ctx.adamelCfg.copy(variant = variant, seed = seed)
      val target = if (variant == Variant.Zero || variant == Variant.Hyb) Some(data.target) else None
      val support = if (variant == Variant.Few || variant == Variant.Hyb) Some(data.support) else None
      val m = new AdaMEL(cfg, data.dim, data.train.featureNames)
      val t0 = System.nanoTime()
      val losses = ctx.span(s"core.fit.$name")(m.fit(data.train, target, support))
      out.add("core.fit_total_s", (System.nanoTime() - t0) / 1e9)
      if (seed == ctx.seed) out.set(s"core.final_loss.$name", losses.last)
      // one step per balanced batch, plus the once-per-epoch support step
      val stepsPerEpoch = math.ceil(data.train.n.toDouble / cfg.batchSize).toInt + support.size
      out.add(s"core.steps.$name", cfg.epochs.toDouble * stepsPerEpoch)
      out.add("core.pair_epochs", cfg.epochs.toDouble * data.train.n)
      ctx.span(s"core.score.$name")(m.scores(data.test))
    }
  }

  /** The nine methods of `MethodRunner.all`, in its order. */
  def allMethods: Seq[Method] = Seq(
    Baseline("TLER", s => new TLER(s)),
    Baseline("DeepMatcher", s => new DeepMatcherLite(dim, s)),
    Baseline("EntityMatcher", s => new EntityMatcherLite(s)),
    Baseline("Ditto", s => new DittoLite(dim, s)),
    Baseline("CorDel-Attention", s => new CorDelLite(s)),
  ) ++ Variant.all.map(AdaMELVariant)

  /** Evaluates each method with one `Harness.evalPRAUC` call over `seeds`.
    * The runner handed to Harness wraps the method in an `eval.run` span
    * whose parent is the Harness span, even if Harness runs it on another
    * thread. Scores are checked, fingerprinted and scored by PRAUC and best
    * F1 after Harness returns. */
  def evaluate(ctx: Ctx, out: Outcome, data: MELData, methods: Seq[Method], seeds: Seq[Long]): Unit = {
    methods.foreach { method =>
      val scores = TrieMap.empty[Long, Array[Double]]
      val result = ctx.span("eval.harness") {
        val harness = ctx.tracer.current
        Harness.evalPRAUC(data, s => new MethodRunner {
          val name: String = method.name
          def run(d: MELData): Array[Double] = ctx.tracer.span(s"eval.run.${method.name}", parent = harness) {
            val sc = method.fitScore(ctx, d, s, out)
            scores(s) = sc
            sc
          }
        }, seeds)
      }
      val key = if (method.layer == "core") s"prauc.${method.name}" else s"baselines.prauc.${method.name}"
      out.set(key, result.mean)
      seeds.zip(result.runs).foreach { case (s, p) => out.set(s"prauc_run.${method.name}.seed$s", p) }
      seeds.foreach { s =>
        val what = s"${method.name} seed $s"
        out.op(what) {
          val sc = scores.getOrElse(s, throw new IllegalStateException("Harness did not run it"))
          ctx.span("eval.prauc")(Metrics.prauc(sc, data.test.labels))
          ctx.span("eval.best_f1")(Metrics.bestF1(sc, data.test.labels))
          out.fingerprints(s"scores.${method.name}.seed$s") = Checks.scoreFingerprint(sc)
          Checks.scoreProblems(what, sc, data.test.n)
        }
      }
    }
    val baselinePrauc = out.values.collect { case (k, v) if k.startsWith("baselines.prauc.") => v }
    if (baselinePrauc.nonEmpty) out.set("prauc.baselines_mean", baselinePrauc.sum / baselinePrauc.size)
  }

  def apply(name: String): Workload = name match {
    case "monitor-prep" => new Workload(name, monitorRecords, None, MonitorGen.seenSources.toSet,
      monitorScenario, MonitorGen.attrs, prepInSetup = false, Nil, _ => Nil)
    case "monitor-fit" => new Workload(name, monitorRecords, None, MonitorGen.seenSources.toSet,
      monitorScenario, MonitorGen.attrs, prepInSetup = true, Seq(AdaMELVariant(Variant.Hyb)), s => Seq(s, s + 1))
    case "music-e2e" => new Workload(name, musicRecords, Some("artist"), MusicGen.seenSources,
      musicScenario, MusicGen.attrs, prepInSetup = false, allMethods, s => Seq(s))
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other' (known: ${names.mkString(", ")})")
  }

  /** Pool-level probes: each pool `Scenarios` builds, counted on its own.
    * They add Spark actions, so they run after the traced iterations. */
  def poolProbes(ctx: Ctx, df: DataFrame, cfg: ScenarioConfig): Seq[(String, Double)] = {
    val pools = Seq[(String, () => DataFrame)](
      "positives" -> (() => Pairing.positives(df)),
      "candidates" -> (() => Blocking.candidates(df, cfg.blockAttr, cfg.maxBlockSize)),
      "hard_negatives" -> (() => Pairing.hardNegatives(df, cfg.blockAttr, cfg.maxBlockSize)),
      "random_negatives" -> (() => Pairing.randomNegatives(df, cfg.seed * 31 + 5)),
    )
    pools.flatMap { case (pool, mk) =>
      val t0 = System.nanoTime()
      val rows = ctx.span(s"er.pool.$pool")(mk().count())
      Seq(s"er.pool_s.$pool" -> (System.nanoTime() - t0) / 1e9, s"er.pool_rows.$pool" -> rows.toDouble)
    }
  }
}
