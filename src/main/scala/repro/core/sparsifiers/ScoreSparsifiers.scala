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
      val ranked = sortedIndices(key, (i, j) => c.nbrs(lo + i) < c.nbrs(lo + j))
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
    * (src, dst) downstream) does not depend on the platform.
    */
  val logExponent: (Int, Int) => Double =
    (rank, deg) => if (rank == 1) 0.0 else StrictMath.log(rank) / StrictMath.log(deg)

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
    sortedIndices(key, (a, b) => src(a) < src(b) || (src(a) == src(b) && dst(a) < dst(b)))

  /** The indices of `key` in ascending (key, `tieLt`) order. `tieLt` must
    * strictly order the indices of equal keys, so the order is total and the
    * result unique. A bottom-up merge sort that moves each key with its
    * index: comparisons read the keys in sequence, and nothing is boxed.
    */
  private def sortedIndices(key: Array[Double], tieLt: (Int, Int) => Boolean): Array[Int] = {
    val n = key.length
    var fromKey = key.clone()
    var fromIdx = Array.range(0, n)
    var toKey = new Array[Double](n)
    var toIdx = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var i = lo
        var j = mid
        var k = lo
        while (k < hi) {
          val right = j < hi && (i == mid || fromKey(j) < fromKey(i) ||
            (fromKey(j) == fromKey(i) && tieLt(fromIdx(j), fromIdx(i))))
          if (right) { toKey(k) = fromKey(j); toIdx(k) = fromIdx(j); j += 1 }
          else { toKey(k) = fromKey(i); toIdx(k) = fromIdx(i); i += 1 }
          k += 1
        }
        lo = hi
      }
      val tk = fromKey; fromKey = toKey; toKey = tk
      val ti = fromIdx; fromIdx = toIdx; toIdx = ti
      width *= 2
    }
    fromIdx
  }

  /** The coarse-grained prune-rate alignment of K-Neighbor and L-Spar
    * (§3.2 item 1): given each edge's level, the smallest level L with
    * #edges(level ≤ L) ≥ target, i.e. the `target`-th smallest level (the
    * largest level if there are fewer edges).
    */
  def levelForTarget(levels: Array[Double], target: Int): Double = {
    val sorted = levels.sorted(Ordering.Double.TotalOrdering)
    sorted.lift(math.min(target, sorted.length) - 1).getOrElse(0.0)
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
    val lvls = levels(g, seed)
    val k = EdgeRanking.levelForTarget(lvls, keepCount(g.numEdges, rho))
    EdgeRanking.keepSmallest(g, lvls, lvls.count(_ <= k), s"KN-$rho-$seed")
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
    EdgeRanking.rankArcs(g, (_, v, _) => c.degree(v), EdgeRanking.logExponent)
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
    EdgeRanking.keepSmallest(g, EdgeRanking.rankArcs(g, (_, _, e) => jaccard(e), EdgeRanking.logExponent),
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
    val exps = EdgeRanking.rankArcs(g, (_, _, e) => jaccard(e), EdgeRanking.logExponent)
    // grid of c values with step 0.02: edge kept iff minExp ≤ c
    val lvls = exps.map(x => math.ceil(x / 0.02))
    val lvl = EdgeRanking.levelForTarget(lvls, keepCount(g.numEdges, rho))
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
