package repro.core.sparsifiers

import java.util.SplittableRandom
import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier}
import repro.metrics.Csr

/** The shared steps of the rank-and-keep sparsifiers (KN, LD, LSim, LS,
  * GS, SCAN, and RN's keep step), on the graph's driver arrays: score every
  * edge once, keep the best.
  */
private[core] object EdgeRanking {

  /** The ranked-arc pass: per-edge MIN over its arcs u→v of
    * `score(rank, deg(u))`, where rank (from 1) is the arc's position among
    * u's arcs in the arcs view (out-arcs for directed graphs) by
    * `order(u, v, edge index)` descending, ties by neighbour id. Each order
    * value is computed once per arc.
    */
  def rankArcs(g: SparkGraph, order: (Int, Int, Int) => Double, score: (Int, Int) => Double): Array[Double] = {
    val c = Csr.fromGraph(g, symmetric = false)
    val best = Array.fill(g.numEdges.toInt)(Double.PositiveInfinity)
    for (u <- 0 until c.n) {
      val lo = c.offsets(u)
      val deg = c.offsets(u + 1) - lo
      // negated, so that ascending order is `order` descending
      val key = new Array[Double](deg)
      for (i <- 0 until deg) key(i) = -order(u, c.nbrs(lo + i), c.arcEdge(lo + i))
      val ranked = Csr.sortedIndices(key, (i, j) => c.nbrs(lo + i) < c.nbrs(lo + j))
      for (r <- 0 until deg) {
        val e = c.arcEdge(lo + ranked(r))
        best(e) = math.min(best(e), score(r + 1, deg))
      }
    }
    best
  }

  /** The Local-Degree/L-Spar/Local-Similarity "keep while rank ≤ deg^α"
    * exponent log(rank)/log(deg). Rank 1 maps to 0, so each vertex's best
    * edge is always kept first (the ≥1-edge guarantee). `StrictMath` gives
    * the same bits on every JVM, so which exponents tie (ties are broken by
    * (src, dst) downstream) does not depend on the platform. The logs come
    * from one table of `StrictMath.log(k)` for k up to the largest degree of
    * `g`'s arcs view, so each call should rank arcs of `g`.
    */
  def logExponent(g: SparkGraph): (Int, Int) => Double = {
    val logs = Array.tabulate(Csr.fromGraph(g, symmetric = false).maxDegree + 1)(k => StrictMath.log(k))
    (rank, deg) => if (rank == 1) 0.0 else logs(rank) / logs(deg)
  }

  /** The `k` edges with the smallest `score` (indexed like
    * [[GraphOps.collectEdges]]), ties broken canonically by (src, dst) so
    * deterministic sparsifiers really are deterministic. The result lists
    * them in ascending (score, src, dst) order.
    */
  def keepSmallest(g: SparkGraph, score: Array[Double], k: Int, suffix: String): SparkGraph = {
    val (s, d, _) = GraphOps.collectEdges(g)
    GraphOps.subgraph(g, sortedEdges(score, s, d).take(k), suffix)
  }

  /** The edge indices in ascending (key, src, dst) order. */
  def sortedEdges(key: Array[Double], src: Array[Int], dst: Array[Int]): Array[Int] =
    Csr.sortedIndices(key, (a, b) => src(a) < src(b) || (src(a) == src(b) && dst(a) < dst(b)))

  /** The coarse-grained prune-rate alignment of K-Neighbor and L-Spar
    * (§3.2 item 1): the edges whose level is at most the `target`-th smallest
    * level (the largest if there are fewer edges), listed like
    * [[keepSmallest]]. `level` is non-decreasing in the score, so the cut
    * extends the first `target` edges through the target-th edge's level.
    */
  def keepCoarse(g: SparkGraph, score: Array[Double], level: Double => Double, target: Int, suffix: String): SparkGraph = {
    val (s, d, _) = GraphOps.collectEdges(g)
    val order = sortedEdges(score, s, d)
    val t = math.min(target, order.length)
    val cut = if (t > 0) level(score(order(t - 1))) else 0.0
    var k = t
    while (k < order.length && level(score(order(k))) <= cut) k += 1
    GraphOps.subgraph(g, order.take(k), suffix)
  }
}

/** K-Neighbor (§2.3.2): every vertex samples up to k of its arcs with
  * probability proportional to edge weight (A-Res weighted reservoir keys,
  * Efraimidis & Spirakis); the kept set is the union over vertices, and k is
  * aligned to the target prune rate (coarse control). Each arc's key is a
  * pure function of (seed, u, v, weight), so the kept set depends only on
  * the edge set and the seed. On an undirected graph every non-isolated
  * vertex keeps ≥1 edge; a directed graph's vertices rank only their
  * out-arcs, so a sink can lose every in-edge.
  */
final class KNeighbor extends Sparsifier {
  val name = "K-Neighbor"; val abbrev = "KN"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    EdgeRanking.keepCoarse(g, levels(g, seed), identity, keepCount(g.numEdges, rho), s"KN-$rho-$seed")
  }

  /** Each edge's level: the smallest rank of its arcs by A-Res key. */
  private[core] def levels(g: SparkGraph, seed: Long): Array[Double] = {
    val w = GraphOps.collectEdges(g)._3
    EdgeRanking.rankArcs(g, (u, v, e) => key(seed, u, v, w(e)), (rank, _) => rank.toDouble)
  }

  /** The A-Res key of arc u→v of weight w, x^(1/w) for a draw x in [0, 1)
    * fixed by (seed, u, v): the v-th draw of the SplitMix64 stream seeded by
    * the u-th draw of the stream seeded by `seed`. Larger keys win.
    */
  private[core] def key(seed: Long, u: Int, v: Int, w: Double): Double = {
    val gamma = 0x9e3779b97f4a7c15L // SplitMix64's stream increment
    val x = new SplittableRandom(new SplittableRandom(seed + u * gamma).nextLong() + v * gamma).nextDouble()
    StrictMath.pow(x, 1.0 / w)
  }
}

/** Local Degree (§2.3.4): for each vertex keep edges to the top deg(v)^α
  * neighbours ranked by neighbour degree. Implemented NetworKit-style as a
  * per-edge score min_u log(rank_u)/log(deg(u)) and a global sort, which
  * gives fine-grained prune-rate control while preserving the per-vertex
  * ≥1-edge guarantee (rank-1 arcs score 0). Degrees are out-degrees on
  * directed graphs, so a sink ranks last, with degree 0, and, ranking no
  * arcs of its own, has no guarantee.
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
    EdgeRanking.rankArcs(g, (_, v, _) => c.degree(v), EdgeRanking.logExponent(g))
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
    EdgeRanking.keepSmallest(g, EdgeRanking.rankArcs(g, (_, _, e) => jaccard(e), EdgeRanking.logExponent(g)),
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
    val jaccard = SimilarityScores.forGraph(g).jaccard
    val exps = EdgeRanking.rankArcs(g, (_, _, e) => jaccard(e), EdgeRanking.logExponent(g))
    // grid of c values with step 0.02: edge kept iff minExp ≤ c
    EdgeRanking.keepCoarse(g, exps, x => math.ceil(x / 0.02), keepCount(g.numEdges, rho), s"LS-$rho")
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
