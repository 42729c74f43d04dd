package repro.core.sparsifiers

import org.apache.spark.sql.functions._
import repro.core.{PruneRateControl, SparkGraph, Sparsifier}

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
