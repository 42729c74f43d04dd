package repro.core.sparsifiers

import java.util.BitSet
import scala.collection.mutable
import scala.util.Random
import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier}
import repro.metrics.Csr

/** Rank Degree (§2.3.3, Voudigari et al.): start from random seed vertices;
  * each seed adds edges to its top-3 neighbours ranked by degree (descending);
  * newly reached vertices become the next seeds; repeat until the target
  * edge budget is met (random restarts if the frontier dries up).
  */
final class RankDegree extends Sparsifier {
  val name = "Rank Degree"; val abbrev = "RD"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = false
  private val topK = 3

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val adj = Csr.fromGraph(g, symmetric = false)
    val m = g.numEdges.toInt
    val target = keepCount(m, rho)
    val rng = new Random(seed)
    val kept = new BitSet(m)
    var nKept = 0
    val inGraph = new Array[Boolean](adj.n)
    val frontier = mutable.Queue.empty[Int]
    val nonIsolated = adj.withArcs
    val cand = new Array[Int](adj.maxDegree) // arcs of u whose edge is not yet kept
    val key = new Array[Long](adj.maxDegree)

    def addSeed(v: Int): Unit = { inGraph(v) = true; frontier.enqueue(v) }

    if (nonIsolated.nonEmpty) {
      val seeds = nonIsolated.clone(); Csr.shuffle(rng, seeds, seeds.length)
      seeds.take(math.max(1, adj.n / 100)).foreach(addSeed)

      while (nKept < target) {
        if (frontier.isEmpty) addSeed(nonIsolated(rng.nextInt(nonIsolated.length)))
        val u = frontier.dequeue()
        // Rank u's neighbours by degree descending (random tie-break): a
        // shuffle, then a stable sort on (−degree, shuffled position).
        var nCand = 0; var a = adj.offsets(u)
        while (a < adj.offsets(u + 1)) { if (!kept.get(adj.arcEdge(a))) { cand(nCand) = a; nCand += 1 }; a += 1 }
        Csr.shuffle(rng, cand, nCand)
        var i = 0
        while (i < nCand) { key(i) = (-adj.degree(adj.nbrs(cand(i))).toLong << 32) | i; i += 1 }
        java.util.Arrays.sort(key, 0, nCand)
        i = 0
        while (i < math.min(topK, nCand)) {
          val arc = cand(key(i).toInt)
          val v = adj.nbrs(arc); val e = adj.arcEdge(arc)
          if (nKept < target && !kept.get(e)) {
            kept.set(e); nKept += 1
            if (!inGraph(v)) addSeed(v)
          }
          i += 1
        }
      }
    }
    GraphOps.subgraph(g, kept.stream().toArray, s"RD-$rho-$seed")
  }
}

/** Forest Fire sparsifier (§2.3.7, after NetworKit's ForestFireScore):
  * repeatedly ignite fires at random vertices; each burning vertex burns a
  * Geometric(p)-distributed number of random unvisited neighbours, p = 0.7,
  * until 3·m edges have burned. Edge scores are burn frequencies; the top-K
  * edges by score are kept.
  */
final class ForestFire extends Sparsifier {
  val name = "Forest Fire"; val abbrev = "FF"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = false
  private val p = 0.7
  private val burnRounds = 3.0

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val adj = Csr.fromGraph(g, symmetric = false)
    val m = g.numEdges.toInt
    val target = keepCount(m, rho)
    val rng = new Random(seed)
    val burns = new Array[Int](m)
    val nonIsolated = adj.withArcs
    if (nonIsolated.nonEmpty) {
      var totalBurns = 0L
      val targetBurns = (burnRounds * m).toLong
      val visited = new Array[Int](adj.n) // fire-id stamps avoid clearing
      java.util.Arrays.fill(visited, -1)
      val queue = new Array[Int](adj.n) // a fire enqueues each vertex at most once
      val cand = new Array[Int](adj.maxDegree) // arcs of u to vertices this fire has not reached
      var fireId = 0
      val maxFires = 50 * (m / math.max(1, nonIsolated.length) + 1) * nonIsolated.length
      while (totalBurns < targetBurns && fireId < maxFires) {
        val start = nonIsolated(rng.nextInt(nonIsolated.length))
        queue(0) = start; visited(start) = fireId
        var head = 0; var tail = 1; var burned = 0
        while (head < tail && burned < adj.n / 2) {
          val u = queue(head); head += 1
          // Geometric(p): number of neighbours to burn from u.
          var toBurn = 0
          while (rng.nextDouble() < p) toBurn += 1
          if (toBurn > 0) {
            var nCand = 0; var a = adj.offsets(u)
            while (a < adj.offsets(u + 1)) { if (visited(adj.nbrs(a)) != fireId) { cand(nCand) = a; nCand += 1 }; a += 1 }
            Csr.shuffle(rng, cand, nCand)
            var i = 0
            while (i < math.min(toBurn, nCand)) {
              val v = adj.nbrs(cand(i))
              burns(adj.arcEdge(cand(i))) += 1; totalBurns += 1; burned += 1
              visited(v) = fireId; queue(tail) = v; tail += 1
              i += 1
            }
          }
        }
        fireId += 1
      }
    }
    // Keep the top-K edges by burns; ties by one draw per edge, then edge index.
    val draw = Array.fill(m)(rng.nextDouble())
    val order = Csr.sortedIndices(burns.map(-_.toDouble), (e, f) => draw(e) < draw(f) || (draw(e) == draw(f) && e < f))
    GraphOps.subgraph(g, order.take(target).sorted, s"FF-$rho-$seed")
  }
}

/** Spanning Forest (§2.3.5): Kruskal over (weight, src, dst)-ordered edges
  * with union-find — one spanning tree per connected component. No control
  * over the prune rate; the target ρ is ignored.
  */
final class SpanningForest extends Sparsifier {
  val name = "Spanning Forest"; val abbrev = "SF"
  val supportsDirected = false
  val pruneRateControl = PruneRateControl.NoControl
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val (src, dst, wt) = GraphOps.collectEdges(g)
    val uf = new Csr.UnionFind(g.numVertices.toInt)
    val kept = new BitSet(src.length)
    EdgeRanking.sortedEdges(wt, src, dst).foreach(e => if (uf.union(src(e), dst(e))) kept.set(e))
    GraphOps.subgraph(g, kept.stream().toArray, "SF")
  }
}

/** Greedy t-Spanner (§2.3.6, Althöfer et al.): scan edges in weight order;
  * add (u,v,w) iff the current spanner distance d_H(u,v) exceeds t·w
  * (bounded Dijkstra). Guarantees d_H(u,v) ≤ t·d_G(u,v) for all pairs
  * and preserves connectivity exactly. Prune rate is fixed by t.
  */
final class TSpanner(val t: Int = 3) extends Sparsifier {
  val name = s"$t-Spanner"; val abbrev = s"SP-$t"
  val supportsDirected = false
  val pruneRateControl = PruneRateControl.NoControl
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val (src, dst, wt) = GraphOps.collectEdges(g)
    val c = Csr.fromGraph(g)
    // The growing spanner H, laid out on G's CSR: u's H-arcs fill the row
    // prefix offsets(u) until hEnd(u). H ⊆ G, so a row cannot overflow.
    val hNbr = new Array[Int](c.nbrs.length)
    val hWt = new Array[Double](c.nbrs.length)
    val hEnd = c.offsets.clone()
    def addArc(u: Int, v: Int, w: Double): Unit = { hNbr(hEnd(u)) = v; hWt(hEnd(u)) = w; hEnd(u) += 1 }
    val kept = new BitSet(src.length)
    val dist = new Array[Double](c.n)
    val stamp = new Array[Int](c.n)
    var curStamp = 0

    /** Bounded Dijkstra from s in the current spanner; true if d(s,v) ≤ cut. */
    def within(s: Int, v: Int, cut: Double): Boolean = {
      curStamp += 1
      val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
      dist(s) = 0.0; stamp(s) = curStamp; pq.enqueue((0.0, s))
      while (pq.nonEmpty) {
        val (d, u) = pq.dequeue()
        if (u == v) return true
        if (stamp(u) == curStamp && d <= dist(u) + 1e-12) {
          var a = c.offsets(u)
          while (a < hEnd(u)) {
            val x = hNbr(a)
            val nd = d + hWt(a)
            if (nd <= cut && (stamp(x) != curStamp || nd < dist(x))) {
              dist(x) = nd; stamp(x) = curStamp; pq.enqueue((nd, x))
            }
            a += 1
          }
        }
      }
      false
    }

    val order = EdgeRanking.sortedEdges(wt, src, dst)
    order.foreach { e =>
      val (u, v, w) = (src(e), dst(e), wt(e))
      if (!within(u, v, t * w)) {
        kept.set(e)
        addArc(u, v, w); addArc(v, u, w)
      }
    }
    GraphOps.subgraph(g, kept.stream().toArray, s"SP$t")
  }
}
