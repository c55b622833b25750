package repro.perfbench

import repro.core.Variant

/** The benchmark's metric names, units and arithmetic. The same names, in
  * the same order, are declared in BENCHMARK.json (a test checks this). */
object BenchMetrics {
  private val splits = Checks.Splits
  private val variants = Variant.all.map(_.name)
  private val baselines = Workloads.allMethods.collect { case b: Workloads.Baseline => b.name }
  private val pools = Seq("positives", "candidates", "hard_negatives", "random_negatives")
  private val layers = Seq("bench", "data", "er", "core", "baselines", "eval")

  /** Reported with `--trace 0`. None of them is 0 on the workloads that
    * BENCHMARK.json declares; monitor-prep trains nothing and reads 0 for
    * `prauc.AdaMEL-hyb`. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "wall_s" -> "s",
    "split_fill_ratio" -> "ratio",
    "prauc.AdaMEL-hyb" -> "prauc",
  )

  /** Reported by every workload with `--trace 1`. A layer a workload does
    * not run reads 0 (e.g. `core.*` on monitor-prep). */
  val PerLayer: Seq[(String, String)] =
    Seq("data.generate_s" -> "s", "data.scenario_plan_s" -> "s") ++
      splits.map(s => s"er.collect_s.$s" -> "s") ++
      splits.map(s => s"er.rows.$s" -> "count") ++
      splits.map(s => s"er.fill_ratio.$s" -> "ratio") ++
      Seq("er.batch_feats_s" -> "s", "er.collected_mb" -> "MB") ++
      pools.map(p => s"er.pool_s.$p" -> "s") ++
      pools.map(p => s"er.pool_rows.$p" -> "count") ++
      Seq("spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
        "spark.task_busy_s" -> "s", "spark.core_busy_ratio" -> "ratio",
        "spark.shuffle_write_mb" -> "MB", "spark.shuffle_read_mb" -> "MB",
        "spark.single_task_stages" -> "count", "spark.max_task_share" -> "ratio") ++
      Seq("text.token_set_us" -> "us", "text.embed_sum_us" -> "us") ++
      Seq("linalg.matmul_us.affine" -> "us", "linalg.matmul_us.classifier" -> "us",
        "linalg.matmul_us.grad_left" -> "us", "linalg.transpose_us" -> "us",
        "linalg.backward_us" -> "us", "linalg.adam_step_us" -> "us") ++
      variants.map(v => s"core.fit_s.$v" -> "s") ++
      Seq("core.score_s" -> "s") ++
      variants.map(v => s"core.step_ms.$v" -> "ms") ++
      variants.map(v => s"core.final_loss.$v" -> "loss") ++
      Seq("core.train_pair_epochs_per_s" -> "1/s") ++
      baselines.map(b => s"baselines.fit_s.$b" -> "s") ++
      Seq("baselines.score_s" -> "s") ++
      Seq("eval.harness_s" -> "s", "eval.harness_concurrency" -> "ratio",
        "eval.prauc_ms" -> "ms", "eval.best_f1_ms" -> "ms") ++
      variants.map(v => s"eval.prauc.$v" -> "prauc") ++
      Seq("eval.prauc.baselines_mean" -> "prauc") ++
      Seq("jvm.gc_s" -> "s", "jvm.alloc_mb" -> "MB", "jvm.heap_peak_mb" -> "MB") ++
      Seq("trace.wall_s" -> "s", "trace.spans" -> "count") ++
      layers.map(l => s"trace.self_share.$l" -> "ratio")

  def median(xs: Seq[Double]): Double = Micro.median(xs)

  /** The end-to-end values, plus `prep_pairs_per_s` for the report. `prep`
    * holds the outcomes that collected splits: the iterations, or set-up
    * on monitor-fit. */
  def endToEnd(setupS: Double, walls: Seq[Double], prep: Seq[Outcome], iters: Seq[Outcome]): Map[String, Double] = Map(
    "setup_s" -> setupS,
    "wall_s" -> median(walls),
    "prep_pairs_per_s" -> prep.map(_.prepPairs).sum / (prep.map(_.prepNs).sum / 1e9),
    "split_fill_ratio" -> Checks.fillRatio(prep.map(_.obtainedRows), prep.map(_.requestedRows)),
    "prauc.AdaMEL-hyb" -> median(iters.flatMap(_.values.get("prauc.AdaMEL-hyb"))),
  )

  /** Source pairs x epochs over the AdaMEL fits, per second of fit time. */
  def trainPairEpochsPerS(outs: Seq[Outcome]): Option[Double] = {
    val pe = outs.map(_.values.getOrElse("core.pair_epochs", 0.0)).sum
    val s = outs.map(_.values.getOrElse("core.fit_total_s", 0.0)).sum
    if (pe > 0 && s > 0) Some(pe / s) else None
  }

  /** Per-layer values of one iteration (or of set-up) from its spans and
    * outcome; only the layers that ran appear. */
  def fromSpans(ss: Seq[Span], out: Outcome, wallS: Option[Double]): Map[String, Double] = {
    val m = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    def named(prefix: String) = ss.filter(_.name.startsWith(prefix))
    def total(prefix: String) = named(prefix).map(_.durNs).sum / 1e9
    def meanMs(name: String) = { val d = ss.filter(_.name == name).map(_.durNs); d.sum / 1e6 / d.size }
    def ifRan(key: String, prefix: String)(v: => Double): Unit = if (named(prefix).nonEmpty) m(key) = v

    ifRan("data.generate_s", "data.generate")(total("data.generate"))
    ifRan("data.scenario_plan_s", "data.scenario_plan")(total("data.scenario_plan"))
    splits.foreach(s => ifRan(s"er.collect_s.$s", s"er.collect.$s")(total(s"er.collect.$s")))
    ifRan("er.batch_feats_s", "er.batch_feats")(total("er.batch_feats"))
    variants.foreach { v =>
      ifRan(s"core.fit_s.$v", s"core.fit.$v")(total(s"core.fit.$v"))
      ifRan(s"core.step_ms.$v", s"core.fit.$v")(
        total(s"core.fit.$v") * 1e3 / out.values.getOrElse(s"core.steps.$v", Double.NaN))
    }
    ifRan("core.score_s", "core.score.")(total("core.score."))
    ifRan("core.train_pair_epochs_per_s", "core.fit.")(
      out.values.getOrElse("core.pair_epochs", 0.0) / total("core.fit."))
    baselines.foreach(b => ifRan(s"baselines.fit_s.$b", s"baselines.fit.$b")(total(s"baselines.fit.$b")))
    ifRan("baselines.score_s", "baselines.score.")(total("baselines.score."))
    ifRan("eval.harness_s", "eval.harness")(total("eval.harness"))
    ifRan("eval.harness_concurrency", "eval.harness")(
      Trace.concurrency(named("eval.run.").map(_.durNs), named("eval.harness").map(_.durNs)))
    ifRan("eval.prauc_ms", "eval.prauc")(meanMs("eval.prauc"))
    ifRan("eval.best_f1_ms", "eval.best_f1")(meanMs("eval.best_f1"))
    wallS.foreach { w =>
      val self = Trace.selfByLayer(ss)
      layers.foreach(l => m(s"trace.self_share.$l") = self.getOrElse(l, 0.0) / w)
      m("trace.spans") = ss.size
    }
    val kept = Seq("er.rows.", "er.fill_ratio.", "er.collected_mb", "core.final_loss.")
    out.values.foreach { case (k, v) =>
      if (kept.exists(p => k.startsWith(p))) m(k) = v
      else if (k.startsWith("prauc.")) m(s"eval.$k") = v
    }
    m.toMap
  }

  /** The `--trace 1` metrics: set-up values, overridden by the median over
    * iterations of each per-iteration value, plus counters and probes. */
  def perLayer(spans: Seq[Span], setup: Outcome, iters: Seq[Iter],
               extra: Seq[(String, Double)]): Map[String, Double] = {
    val setupVals = fromSpans(spans.filter(_.iter == -1), setup, None)
    val perIter = iters.map(it => fromSpans(spans.filter(_.iter == it.n), it.out, Some(it.wallS)) ++ it.counters)
    val iterVals = perIter.flatMap(_.keys).distinct.map { k =>
      k -> median(perIter.flatMap(_.get(k)))
    }.toMap
    setupVals ++ iterVals ++ extra ++ Map("trace.wall_s" -> median(iters.map(_.wallS)))
  }
}
