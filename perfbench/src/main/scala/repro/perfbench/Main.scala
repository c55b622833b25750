package repro.perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.sql.SparkSession
import repro.bench.BenchDatasets
import scala.jdk.CollectionConverters._

/** Pipeline benchmark entry point.
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        [--epochs <n>] [--out <dir>] [--commit <id>]
  * }}}
  *
  * Prints an `env` line, a `report` line and, last, the result line
  * `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
  * with `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
  */
object Main {

  /** Epochs per AdaMEL fit. `BenchDatasets.adamelCfg` trains 60; a tenth
    * keeps every run inside the benchmark's time budget while leaving the
    * work per optimiser step unchanged. */
  val DefaultEpochs = 6
  val ShufflePartitions = 64 // SparkSpec's default, which the tests use
  /** Stop starting iterations this long after the process started, so a run
    * always ends well inside its time limit. */
  val IterationCutoffS = 120.0

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        epochs: Int, out: File, commit: String)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, trace,
      m.get("epochs").map(_.toInt).getOrElse(DefaultEpochs),
      new File(m.getOrElse("out", "perfbench/out")), m.getOrElse("commit", "unknown"))
  }

  def main(argv: Array[String]): Unit = {
    val t00 = System.nanoTime()
    def sinceStart: Double = (System.nanoTime() - t00) / 1e9
    val args = parse(argv)
    val workload = Workloads(args.workload)
    require(args.seed >= 1, "--seed must be at least 1")
    args.out.mkdirs()
    val cores = Runtime.getRuntime.availableProcessors

    val tSpark = System.nanoTime()
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(args.out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(args.out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    val sparkStartS = (System.nanoTime() - tSpark) / 1e9

    try {
      val tracer = new Tracer(args.trace)
      val ctx = Ctx(spark, tracer, args.seed, BenchDatasets.adamelCfg.copy(epochs = args.epochs))
      val env = Seq(
        "workload" -> args.workload, "seed" -> args.seed.toString, "traced" -> args.trace.toString,
        "nproc" -> cores.toString, "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
        "spark" -> spark.version, "master" -> spark.sparkContext.master,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
        "gc" -> java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+"),
        "adamel_epochs" -> args.epochs.toString, "commit" -> args.commit)
      println(Json.obj(Seq("env" -> Json.strMap(env))))

      val sparkCounters = if (args.trace) Some(new SparkCounters(spark)) else None
      val jvm = if (args.trace) Some(new JvmCounters) else None

      val setupOut = new Outcome
      val tSetup = System.nanoTime()
      workload.setup(ctx, setupOut)
      val setupS = sparkStartS + (System.nanoTime() - tSetup) / 1e9

      val iters = Vector.newBuilder[Iter]
      val tMeasure = System.nanoTime()
      var n = 0
      var lastWall = 0.0
      while (n == 0 || ((System.nanoTime() - tMeasure) / 1e9 < args.seconds &&
                        sinceStart + lastWall < IterationCutoffS)) {
        tracer.iter = n
        sparkCounters.foreach(_.reset()); jvm.foreach(_.reset())
        val out = new Outcome
        val t0 = System.nanoTime()
        tracer.span("bench.iteration")(workload.iteration(ctx, out))
        lastWall = (System.nanoTime() - t0) / 1e9
        val counters = sparkCounters.map(_.read(lastWall, cores)).getOrElse(Nil) ++
          jvm.map(_.read()).getOrElse(Nil)
        iters += Iter(n, lastWall, out, counters.toMap)
        n += 1
      }
      tracer.iter = -1
      val done = iters.result()

      // Fingerprints must not change from one iteration to the next.
      val unstable = done.drop(1).flatMap { it =>
        it.out.fingerprints.collect {
          case (k, fp) if done.head.out.fingerprints.get(k).exists(_ != fp) =>
            s"fingerprint $k changed in iteration ${it.n}"
        }
      }

      val extra =
        if (!args.trace) Nil
        else {
          val df = workload.freshRecords(ctx)
          tracer.iter = -2
          val pools = Workloads.poolProbes(ctx, df, workload.scenario)
          val micro = Micro.linalg(ctx.adamelCfg, Workloads.dim, workload.sampleBatch.featureNames) ++
            Micro.text(workload.records.flatMap(_.attrs.values), workload.sampleBatch)
          pools ++ micro
        }

      val all = setupOut +: done.map(_.out)
      val attempted = all.map(_.attempted).sum
      val failed = all.map(_.failed).sum
      val problems = all.flatMap(_.problems) ++ unstable
      val prepFrom = if (done.head.out.prepPairs > 0) done.map(_.out) else Seq(setupOut)
      val e2e = BenchMetrics.endToEnd(setupS, done.map(_.wallS), prepFrom, done.map(_.out))

      val metrics =
        if (!args.trace) e2e
        else BenchMetrics.perLayer(tracer.spans, setupOut, done, extra)
      val reportValues = done.last.out.values.toSeq ++ Seq(
        "failed_ratio" -> failed.toDouble / math.max(attempted, 1),
        "spark_start_s" -> sparkStartS) ++
        BenchMetrics.trainPairEpochsPerS(done.map(_.out)).map("train_pair_epochs_per_s" -> _)
      val report = Json.obj(Seq(
        "iterations" -> done.size.toString,
        "wall_s_each" -> done.map(i => Json.num(i.wallS)).mkString("[", ",", "]"),
        "end_to_end" -> Json.obj(e2e.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) }),
        "values" -> Json.obj(reportValues.map { case (k, v) => k -> Json.num(v) }),
        "split_sizes" -> Json.obj((if (setupOut.splitSizes.nonEmpty) setupOut else done.head.out)
          .splitSizes.toSeq.map { case (k, m) => k -> Json.obj(m.toSeq.map { case (a, b) => a -> b.toString }) }),
        "fingerprints" -> Json.strMap((setupOut.fingerprints ++ done.head.out.fingerprints).toSeq),
        "problems" -> problems.map(Json.str).mkString("[", ",", "]"),
      ))
      println(Json.obj(Seq("report" -> report)))

      if (args.trace) {
        val f = new File(args.out, s"spans-${args.workload}-seed${args.seed}.jsonl")
        val w = new PrintWriter(f)
        try tracer.spans.foreach(s => w.println(Trace.toJson(s))) finally w.close()
        Console.err.println(s"perfbench: ${tracer.spans.size} spans written to $f")
      }

      val declared = if (args.trace) BenchMetrics.PerLayer else BenchMetrics.EndToEnd
      val correct = failed == 0 && unstable.isEmpty && metrics.forall(m => !m._2.isNaN && !m._2.isInfinite)
      val fields = declared.map { case (k, unit) =>
        k -> Json.obj(Seq("value" -> Json.num(metrics.getOrElse(k, 0.0)), "unit" -> Json.str(unit)))
      }
      println(Json.obj(Seq(
        "correct" -> correct.toString, "attempted" -> attempted.toString,
        "failed" -> failed.toString, "metrics" -> Json.obj(fields))))
    } finally spark.stop()
  }
}

/** One measured iteration: its wall time, outcome and layer counters. */
final case class Iter(n: Int, wallS: Double, out: Outcome, counters: Map[String, Double])
