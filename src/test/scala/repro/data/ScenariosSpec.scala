package repro.data

import org.apache.spark.sql.DataFrame
import repro.SparkSpec

class ScenariosSpec extends SparkSpec {

  private lazy val records = RecordsDF.toDF(spark,
    MusicGen.generate(MusicConfig(nArtists = 60, seed = 11)).filter(_.etype == "artist"))

  private val cfg = ScenarioConfig(
    nTrainPos = 40, nTrainNeg = 80, nSupport = 20,
    nTestPos = 40, nTestNeg = 60, nTargetExtra = 50,
    blockAttr = "name", seed = 3)

  private lazy val overlapping = Scenarios.build(records, MusicGen.seenSources, cfg)
  private lazy val disjoint = Scenarios.build(records, MusicGen.seenSources, cfg.copy(disjoint = true))

  // Table 7 shape at toy size: two catalogs, every entity in both.
  private lazy val singleDomain = Scenarios.buildSingleDomain(
    RecordsDF.toDF(spark, BenchmarkGen.generate(BenchConfig("tiny", "Product", 80, noise = 0.1))),
    cfg.copy(blockAttr = "title"))

  private def srcs(df: DataFrame): Seq[(String, String)] =
    df.select("src1", "src2").collect().map(r => (r.getString(0), r.getString(1))).toSeq

  private def ids(df: DataFrame): Seq[(Long, Long)] =
    df.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq

  private def labels(df: DataFrame): Seq[Double] =
    df.select("label").collect().map(_.getDouble(0)).toSeq

  test("all four splits are non-empty") {
    Seq(overlapping.train, overlapping.support, overlapping.target, overlapping.test)
      .foreach(df => assert(df.count() > 0))
  }

  test("train pairs use only seen sources (D_S definition)") {
    srcs(overlapping.train).foreach { case (a, b) =>
      assert(MusicGen.seenSources(a) && MusicGen.seenSources(b))
    }
  }

  test("overlapping target pairs have at least one unseen source (Def. 3.1)") {
    (srcs(overlapping.test) ++ srcs(overlapping.support)).foreach { case (a, b) =>
      assert(!MusicGen.seenSources(a) || !MusicGen.seenSources(b))
    }
  }

  test("disjoint target pairs have both sources unseen (S2)") {
    (srcs(disjoint.test) ++ srcs(disjoint.support)).foreach { case (a, b) =>
      assert(!MusicGen.seenSources(a) && !MusicGen.seenSources(b))
    }
  }

  test("support set is balanced 50/50 (§5.2)") {
    val labels = overlapping.support.select("label").collect().map(_.getDouble(0))
    assert(labels.count(_ == 1.0) == 10 && labels.count(_ == 0.0) == 10)
  }

  test("support pairs do not overlap the test pairs") {
    val t = overlapping.test.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val s = overlapping.support.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(t.intersect(s).isEmpty)
  }

  test("target domain batch is fully unlabeled") {
    assert(overlapping.target.select("label").collect().forall(_.getDouble(0) == -1.0))
  }

  test("target domain contains the test pairs (transductive DA)") {
    val t = overlapping.test.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val tgt = overlapping.target.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(t.subsetOf(tgt))
  }

  test("test labels are consistent with ground-truth entity ids") {
    overlapping.test.select("label", "e1", "e2").collect().foreach { r =>
      val same = r.getLong(1) == r.getLong(2)
      assert(r.getDouble(0) == (if (same) 1.0 else 0.0))
    }
  }

  test("scenario construction is deterministic in seed") {
    val again = Scenarios.build(records, MusicGen.seenSources, cfg)
    val a = overlapping.test.select("id1", "id2").collect().map(_.toSeq).toSeq
    val b = again.test.select("id1", "id2").collect().map(_.toSeq).toSeq
    assert(a == b)
  }

  test("single-domain train, support and test are disjoint samples of one pool") {
    val (train, support, test) =
      (ids(singleDomain.train).toSet, ids(singleDomain.support).toSet, ids(singleDomain.test).toSet)
    assert(train.nonEmpty && support.nonEmpty && test.nonEmpty)
    assert(train.intersect(support).isEmpty)
    assert(train.intersect(test).isEmpty)
    assert(support.intersect(test).isEmpty)
  }

  test("single-domain support has at most nSupport / 2 pairs per class") {
    val l = labels(singleDomain.support)
    assert(l.count(_ == 1.0) <= cfg.nSupport / 2 && l.count(_ == 0.0) <= cfg.nSupport / 2)
    assert(l.count(_ == 1.0) + l.count(_ == 0.0) == l.size)
  }

  test("single-domain target is exactly the test pairs, unlabeled") {
    val target = ids(singleDomain.target)
    assert(target.sorted == ids(singleDomain.test).sorted)
    assert(labels(singleDomain.target).forall(_ == -1.0))
  }

  test("train set has the requested composition") {
    val labels = overlapping.train.select("label").collect().map(_.getDouble(0))
    assert(labels.count(_ == 1.0) <= 40 && labels.count(_ == 1.0) > 10)
    assert(labels.count(_ == 0.0) <= 80 && labels.count(_ == 0.0) > 20)
  }
}
