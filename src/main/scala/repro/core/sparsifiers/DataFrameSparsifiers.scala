package repro.core.sparsifiers

import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier}

/** Uniform random edge sampling (§2.3.1) — the naive baseline. */
final class RandomSparsifier extends Sparsifier {
  val name = "Random"; val abbrev = "RN"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val k = keepCount(g.numEdges, rho)
    val kept = g.edges.withColumn("__score", rand(seed))
      .orderBy(col("__score").asc, col("src").asc, col("dst").asc)
      .limit(k)
      .select("src", "dst", "weight")
    g.withEdges(kept, s"RN-$rho-$seed")
  }
}

/** K-Neighbor (§2.3.2): every vertex samples up to k incident edges with
  * probability proportional to edge weight (A-Res weighted reservoir keys);
  * the kept set is the union over vertices. k is aligned to the target
  * prune rate (coarse control), and every non-isolated vertex keeps ≥1 edge.
  */
final class KNeighbor extends Sparsifier {
  val name = "K-Neighbor"; val abbrev = "KN"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val target = keepCount(g.numEdges, rho).toLong
    // A-Res key: u^(1/w) — larger keys win; reduces to uniform for w≡1.
    val w = Window.partitionBy("u").orderBy(col("key").desc, col("v").asc)
    val ranked = GraphOps.arcs(g)
      .withColumn("key", pow(rand(seed), lit(1.0) / col("weight")))
      .withColumn("rnk", row_number().over(w))
    val canon =
      if (g.directed) ranked.select(col("u") as "src", col("v") as "dst", col("rnk"))
      else ranked.select(
        least(col("u"), col("v")) as "src",
        greatest(col("u"), col("v")) as "dst",
        col("rnk"))
    val lvls = canon.groupBy("src", "dst").agg(min("rnk") as "lvl")
    val counts = lvls.groupBy("lvl").count().collect().map(r => (r.getAs[Number](0).longValue(), r.getLong(1)))
    val k    = EdgeRanking.levelForTarget(counts.toSeq, target)
    val kept = lvls.filter(col("lvl") <= k).join(g.edges, Seq("src", "dst"))
      .select("src", "dst", "weight")
    g.withEdges(kept, s"KN-$rho-$seed")
  }
}
