package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.sparsifiers.RandomSparsifier
import repro.graphs.Datasets

/** Random draws on the driver the sample that Spark's `rand(seed)` plan
  * drew: the key stream is Spark's, and on the dataset graphs the kept
  * edges, their order and their weights equal those of the Catalyst plan
  * `orderBy(rand(seed), src, dst).limit(k)`, whose sampling stage runs as one
  * partition in the graph's edge order.
  */
class RandomSparsifierSpec extends SparkSpec {

  for (seed <- Seq(0L, 7L, -3L, Long.MaxValue))
    test(s"XorShift($seed) is the stream of rand($seed) over one partition") {
      val n = 1000
      val drawn = spark.range(0, n, 1, 1).select(rand(seed)).collect().map(_.getDouble(0)).toSeq
      val rng = new RandomSparsifier.XorShift(seed)
      assert(Seq.fill(n)(rng.nextDouble()) === drawn)
    }

  /** The sampler's former Catalyst plan, collected in its sorted order. */
  private def catalystSample(g: SparkGraph, rho: Double, seed: Long): Seq[(Int, Int, Double)] = {
    val k = math.max(1L, math.round((1.0 - rho) * g.numEdges)).toInt
    edgesDf(g).withColumn("__score", rand(seed))
      .orderBy(col("__score").asc, col("src").asc, col("dst").asc)
      .limit(k)
      .select("src", "dst", "weight")
      .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getDouble(2))).toSeq
  }

  test("RN keeps the Catalyst plan's edges, order and weights on every dataset at scale 0.25") {
    for (spec <- Datasets.specs; rho <- Seq(0.1, 0.5, 0.9); seed <- Seq(7L, 1007L)) {
      val g = Datasets.get(spark, spec.name, 0.25)
      val (s, d, w) = GraphOps.collectEdges(Sparsifiers.random(g, rho, seed))
      assert(s.indices.map(i => (s(i), d(i), w(i))) === catalystSample(g, rho, seed), s"${spec.name} ρ=$rho seed=$seed")
    }
  }
}
