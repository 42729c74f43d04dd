package repro.core.sparsifiers

import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier}
import repro.metrics.Csr

/** The shared steps of the score-and-sort sparsifiers (LD, LSim, LS, GS,
  * SCAN), on the graph's driver arrays: score every edge once, keep the best.
  */
private[core] object EdgeRanking {

  /** Per-edge MIN over its arcs u→v of log(rank)/log(deg(u)), where rank is
    * the arc's position among u's arcs in the arcs view (out-arcs for
    * directed graphs) by `order(v, edge index)` descending, ties by
    * neighbour id — the Local-Degree/L-Spar/Local-Similarity "keep while
    * rank ≤ deg^α" exponent. Rank 1 maps to exponent 0, so each vertex's
    * best edge is always kept first (the ≥1-edge guarantee). `StrictMath`
    * gives the same bits on every JVM, so which exponents tie (ties are
    * broken by (src, dst) downstream) does not depend on the platform.
    */
  def rankExponent(g: SparkGraph, order: (Int, Int) => Double): Array[Double] = {
    val c = Csr.fromGraph(g, symmetric = false)
    val exp = Array.fill(g.numEdges.toInt)(Double.PositiveInfinity)
    var u = 0
    while (u < c.n) {
      val logDeg = StrictMath.log(c.degree(u))
      val ranked = (c.offsets(u) until c.offsets(u + 1)).sortWith { (a, b) =>
        val oa = order(c.nbrs(a), c.arcEdge(a))
        val ob = order(c.nbrs(b), c.arcEdge(b))
        oa > ob || (oa == ob && c.nbrs(a) < c.nbrs(b))
      }
      var r = 0
      while (r < ranked.length) {
        val e = c.arcEdge(ranked(r))
        val x = if (r == 0) 0.0 else StrictMath.log(r + 1) / logDeg
        if (x < exp(e)) exp(e) = x
        r += 1
      }
      u += 1
    }
    exp
  }

  /** The `k` edges with the smallest `score` (indexed like
    * [[GraphOps.collectEdges]]), ties broken canonically by (src, dst) so
    * deterministic sparsifiers really are deterministic. The result lists
    * them in ascending (score, src, dst) order.
    */
  def keepSmallest(g: SparkGraph, score: Array[Double], k: Int, suffix: String): SparkGraph = {
    val (s, d, w) = GraphOps.collectEdges(g)
    val idx = s.indices.sortWith { (a, b) =>
      score(a) < score(b) || (score(a) == score(b) && (s(a) < s(b) || (s(a) == s(b) && d(a) < d(b))))
    }.take(k).toArray
    SparkGraph.fromCanonical(g.spark, s"${g.name}#$suffix", idx.map(s), idx.map(d), idx.map(w),
      g.directed, g.weighted, g.numVertices)
  }

  /** Given (level, #edges at that level) pairs, the smallest level L such
    * that #edges(level ≤ L) ≥ target — the coarse-grained prune-rate
    * alignment used by K-Neighbor and L-Spar (§3.2 item 1). The largest
    * level if no level reaches the target.
    */
  def levelForTarget(counts: Seq[(Long, Long)], target: Long): Long = {
    val sorted = counts.sortBy(_._1)
    val cum = sorted.scanLeft(0L)(_ + _._2).tail
    sorted.zip(cum).collectFirst { case ((lvl, _), c) if c >= target => lvl }
      .orElse(sorted.lastOption.map(_._1)).getOrElse(1L)
  }
}

/** Local Degree (§2.3.4): for each vertex keep edges to the top deg(v)^α
  * neighbours ranked by neighbour degree. Implemented NetworKit-style as a
  * per-edge score min_u log(rank_u)/log(deg(u)) and a global sort, which
  * gives fine-grained prune-rate control while preserving the per-vertex
  * ≥1-edge guarantee (rank-1 arcs score 0). Degrees are out-degrees on
  * directed graphs, so a sink ranks last, with degree 0.
  */
final class LocalDegree extends Sparsifier {
  val name = "Local Degree"; val abbrev = "LD"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph =
    EdgeRanking.keepSmallest(g, exponents(g), keepCount(g.numEdges, rho), s"LD-$rho")

  /** Each edge's rank exponent by neighbour degree. */
  private[core] def exponents(g: SparkGraph): Array[Double] = {
    val c = Csr.fromGraph(g, symmetric = false)
    EdgeRanking.rankExponent(g, (v, _) => c.degree(v))
  }
}

/** Local Similarity (§2.3.8): like Local Degree but neighbours are ranked by
  * Jaccard similarity; score log(rank)/log(deg), globally sorted.
  */
final class LocalSimilarity extends Sparsifier {
  val name = "Local Similarity"; val abbrev = "LSim"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val jaccard = SimilarityScores.forGraph(g).jaccard
    EdgeRanking.keepSmallest(g, EdgeRanking.rankExponent(g, (_, e) => jaccard(e)),
      keepCount(g.numEdges, rho), s"LSim-$rho")
  }
}

/** L-Spar (§2.3.8, Satuluri et al.): per-vertex keep the top ⌈deg^c⌉ edges by
  * Jaccard similarity. c is aligned to the target prune rate on a coarse
  * grid (the union over vertices makes exact control impossible).
  */
final class LSpar extends Sparsifier {
  val name = "L-Spar"; val abbrev = "LS"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val target = keepCount(g.numEdges, rho).toLong
    val jaccard = SimilarityScores.forGraph(g).jaccard
    val exps = EdgeRanking.rankExponent(g, (_, e) => jaccard(e))
    // grid of c values with step 0.02: edge kept iff minExp ≤ c
    val lvls = exps.map(x => math.ceil(x / 0.02).toLong)
    val lvl = EdgeRanking.levelForTarget(lvls.groupMapReduce(identity)(_ => 1L)(_ + _).toSeq, target)
    // levels grow with the exponent, so the kept level set is a prefix of
    // the exponent order
    EdgeRanking.keepSmallest(g, exps, lvls.count(_ <= lvl), s"LS-$rho")
  }
}

/** G-Spar (§2.3.8): global sort by Jaccard similarity, keep the top K. */
final class GSpar extends Sparsifier {
  val name = "G-Spar"; val abbrev = "GS"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph =
    EdgeRanking.keepSmallest(g, SimilarityScores.forGraph(g).jaccard.map(-_), keepCount(g.numEdges, rho), s"GS-$rho")
}

/** SCAN structural-similarity sparsifier (§2.3.8): global sort by the SCAN
  * score (common+1)/sqrt((deg+1)(deg+1)), keep the top K.
  */
final class Scan extends Sparsifier {
  val name = "SCAN"; val abbrev = "SCAN"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph =
    EdgeRanking.keepSmallest(g, SimilarityScores.forGraph(g).scan.map(-_), keepCount(g.numEdges, rho), s"SCAN-$rho")
}
