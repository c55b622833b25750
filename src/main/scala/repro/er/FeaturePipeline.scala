package repro.er

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.UserDefinedFunction
import repro.text.{HashEmbed, Tokenizer}

/** The distributed feature dataflow (paper §4.2, Fig. 3).
  *
  * Input: a pair DataFrame with columns
  * `pair_id: long, label: double, src1: string, src2: string,
  * a1: map<string,string>, a2: map<string,string>`
  * (label = -1 marks unlabeled target-domain pairs).
  *
  * For every attribute `A` in the aligned schema, the pipeline
  *   1. tokenizes both values (lowercase, alnum split, crop 20 — Tokenizer),
  *   2. computes the contrastive token sets `sim(A) = t1 ∩ t2` and
  *      `uni(A) = (t1 ∪ t2) − (t1 ∩ t2)` via `array_intersect`/`array_except`
  *      (Eq. 2),
  *   3. reduces each token set to the sum of hashed token embeddings, with
  *      the fixed normalized non-zero vector for empty sets (Eq. 3, §4.3).
  *
  * Everything up to the final `collect` runs distributed on the pair
  * partitions; the resulting N x (2|A|) x D tensor is what the driver-side
  * trainers consume as [[PairBatch]].
  */
object FeaturePipeline {

  private def tokenizeUdf: UserDefinedFunction =
    F.udf((s: String) => Tokenizer.tokenSet(Option(s).getOrElse("")))

  private def embedSumUdf(dim: Int): UserDefinedFunction =
    F.udf((ts: Seq[String]) => HashEmbed.embedSum(Option(ts).getOrElse(Seq.empty), dim))

  /** Adds per-attribute token columns `t1_<i>`, `t2_<i>`, `sim_<i>`, `uni_<i>`. */
  def withTokenColumns(pairs: DataFrame, attrs: Seq[String]): DataFrame = {
    val tok = tokenizeUdf
    attrs.zipWithIndex.foldLeft(pairs) { case (df, (attr, i)) =>
      val t1 = tok(F.col("a1").getItem(attr))
      val t2 = tok(F.col("a2").getItem(attr))
      df.withColumn(s"t1_$i", t1)
        .withColumn(s"t2_$i", t2)
        .withColumn(s"sim_$i", F.array_intersect(F.col(s"t1_$i"), F.col(s"t2_$i")))
        .withColumn(s"uni_$i",
          F.array_union(
            F.array_except(F.col(s"t1_$i"), F.col(s"t2_$i")),
            F.array_except(F.col(s"t2_$i"), F.col(s"t1_$i"))))
    }
  }

  /** Full feature DataFrame: adds `features: array<double>` of length 2|A|*D
    * (feature-major: sim(A_1), uni(A_1), sim(A_2), ...) plus token arrays. */
  def features(pairs: DataFrame, attrs: Seq[String], dim: Int = HashEmbed.DefaultDim): DataFrame = {
    val emb = embedSumUdf(dim)
    val withToks = withTokenColumns(pairs, attrs)
    val featCols = attrs.indices.flatMap(i => Seq(emb(F.col(s"sim_$i")), emb(F.col(s"uni_$i"))))
    withToks.withColumn("features", F.flatten(F.array(featCols: _*)))
      .withColumn("toks1", F.array(attrs.indices.map(i => F.col(s"t1_$i")): _*))
      .withColumn("toks2", F.array(attrs.indices.map(i => F.col(s"t2_$i")): _*))
      .select("pair_id", "label", "src1", "src2", "toks1", "toks2", "features")
  }

  /** Runs the pipeline and collects a driver-side [[PairBatch]].
    * Rows are ordered by `pair_id` so collection order is deterministic. */
  def collectBatch(pairs: DataFrame, attrs: Seq[String], dim: Int = HashEmbed.DefaultDim): PairBatch = {
    val rows = features(pairs, attrs, dim).orderBy("pair_id").collect()
    val data = rows.map { r =>
      PairData(
        label = r.getAs[Double]("label"),
        src1 = r.getAs[String]("src1"),
        src2 = r.getAs[String]("src2"),
        toks1 = r.getAs[scala.collection.Seq[scala.collection.Seq[String]]]("toks1").map(_.toSeq).toArray,
        toks2 = r.getAs[scala.collection.Seq[scala.collection.Seq[String]]]("toks2").map(_.toSeq).toArray,
        features = r.getAs[scala.collection.Seq[Double]]("features").toArray,
      )
    }
    PairBatch(attrs.toVector, dim, data)
  }
}
