package repro.metrics

import scala.collection.mutable
import scala.util.Random
import repro.core.SparkGraph

/** Immutable CSR adjacency on the driver — the one substrate for the
  * sequential sparsifiers (Rank Degree, Forest Fire, t-Spanner) and every
  * metric (degrees, triangles, BFS/Dijkstra distances, Brandes betweenness,
  * power iterations, Louvain, max-flow). Graphs in this repro are ≤ ~10⁵ edges
  * (DESIGN.md), so collected arrays are the right tool. Every metric's
  * unweighted traversal runs on the one BFS kernel, `bfs(s, scratch)`.
  *
  * Each arc carries the index of the edge it came from (`arcEdge`), so a
  * kept-edge bitset maps straight back to the graph's edge arrays.
  */
final class Csr(
    val n: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val wts: Array[Double],
    val arcEdge: Array[Int]) {

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  def maxDegree: Int = if (n == 0) 0 else (0 until n).map(degree).max

  @inline def foreachNbr(v: Int)(f: (Int, Double) => Unit): Unit = {
    var i = offsets(v)
    while (i < offsets(v + 1)) { f(nbrs(i), wts(i)); i += 1 }
  }

  /** Iterate (neighbour, edge index) pairs of v. */
  @inline def foreachArc(v: Int)(f: (Int, Int) => Unit): Unit = {
    var i = offsets(v)
    while (i < offsets(v + 1)) { f(nbrs(i), arcEdge(i)); i += 1 }
  }

  /** The BFS kernel: hop counts from `s` into `b.dist`, and the reached
    * vertices in visit order into `b.order`, which doubles as the queue.
    * Resets only the vertices that `b`'s previous search reached.
    */
  def bfs(s: Int, b: Csr.Bfs): Unit = {
    val dist = b.dist; val order = b.order
    var i = 0
    while (i < b.reached) { dist(order(i)) = -1; i += 1 }
    dist(s) = 0; order(0) = s
    var head = 0; var tail = 1
    while (head < tail) {
      val u = order(head); head += 1
      val du = dist(u) + 1
      val end = offsets(u + 1)
      i = offsets(u)
      while (i < end) {
        val v = nbrs(i)
        if (dist(v) < 0) { dist(v) = du; order(tail) = v; tail += 1 }
        i += 1
      }
    }
    b.reached = tail
  }

  /** Unweighted BFS distances from `s`; -1 = unreachable. */
  def bfs(s: Int): Array[Int] = { val b = new Csr.Bfs(n); bfs(s, b); b.dist }

  /** Weighted shortest-path distances from `s`; Infinity = unreachable. */
  def dijkstra(s: Int): Array[Double] = {
    val dist = Array.fill(n)(Double.PositiveInfinity)
    dist(s) = 0.0
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
    pq.enqueue((0.0, s))
    while (pq.nonEmpty) {
      val (d, u) = pq.dequeue()
      if (d <= dist(u) + 1e-12) {
        foreachNbr(u) { (v, w) =>
          if (d + w < dist(v)) { dist(v) = d + w; pq.enqueue((d + w, v)) }
        }
      }
    }
    dist
  }

  /** Connected-component labels (the CSR must be symmetric). */
  def components(): Array[Int] = {
    val comp = Array.fill(n)(-1)
    val b = new Csr.Bfs(n)
    var c = 0
    var v = 0
    while (v < n) {
      if (comp(v) < 0) {
        bfs(v, b)
        var i = 0
        while (i < b.reached) { comp(b.order(i)) = c; i += 1 }
        c += 1
      }
      v += 1
    }
    comp
  }
}

object Csr {

  /** Scratch space of the BFS kernel for graphs of `n` vertices, reused
    * across sources: `dist` holds hop counts (-1 = not reached) and
    * `order(0 until reached)` the reached vertices in visit order.
    */
  final class Bfs(n: Int) {
    val dist: Array[Int] = Array.fill(n)(-1)
    val order: Array[Int] = new Array[Int](n)
    var reached = 0
  }

  /** Same-component vertex pairs of a graph whose component labels are
    * `comp` (from `components()`): `draw` picks a component of ≥ 2 vertices
    * with probability proportional to its number of ordered pairs, so a pair
    * drawn inside it is uniform over all same-component pairs.
    */
  final class ComponentPairs(comp: Array[Int]) {
    private val groups = comp.indices.groupBy(comp).values.filter(_.size >= 2).toArray
    private val cum = groups.map(c => c.size.toLong * (c.size - 1)).scanLeft(0L)(_ + _).tail

    def isEmpty: Boolean = groups.isEmpty

    /** The vertices of a drawn component, for one `rng.nextDouble()`. */
    def draw(rng: Random): IndexedSeq[Int] = {
      val d = (rng.nextDouble() * cum.last).toLong
      groups(cum.indexWhere(_ > d))
    }
  }

  /** Single-source distances, one source at a time: hop counts through the
    * BFS kernel on unweighted graphs, Dijkstra on weighted ones.
    */
  final class ShortestPaths(c: Csr, weighted: Boolean) {
    private val b = new Bfs(c.n)
    private var src = 0
    private var wd: Array[Double] = null

    def from(s: Int): this.type = { src = s; if (weighted) wd = c.dijkstra(s) else c.bfs(s, b); this }

    /** Distance to `v`; Infinity = unreachable. */
    def apply(v: Int): Double =
      if (weighted) wd(v) else if (b.dist(v) < 0) Double.PositiveInfinity else b.dist(v)

    /** The largest finite distance and the smallest vertex id at it. */
    def farthest: (Double, Int) = {
      var far = src; var fd = 0.0
      var v = 0
      while (v < c.n) { val d = apply(v); if (d.isFinite && d > fd) { fd = d; far = v }; v += 1 }
      (fd, far)
    }

    /** Sum of the finite distances, in vertex-id order. */
    def sum: Double = { var t = 0.0; var v = 0; while (v < c.n) { if (apply(v).isFinite) t += apply(v); v += 1 }; t }
  }

  /** The graph's shared CSR. `symmetric = true` (default) gives the
    * view used by the distance and degree metrics; `false` keeps
    * directed out-adjacency (PageRank, left-eigenvector, Katz). Undirected
    * graphs have only the symmetric view. Built at most once per view and
    * graph; callers must not write to its arrays.
    */
  def fromGraph(g: SparkGraph, symmetric: Boolean = true): Csr =
    g.csr(bothDirections = symmetric || !g.directed)

  /** The shared CSR of the graph's simple undirected graph (the symmetrized
    * graph of §3.1): unlike the symmetric view, a directed graph's
    * reciprocal arcs u→v, v→u give one edge, so each neighbour is listed
    * once. The same CSR as `fromGraph(g)` for undirected graphs.
    */
  def undirected(g: SparkGraph): Csr = fromGraph(g.symmetrized)

  /** Counting-sort build: each vertex lists its arcs in edge-index order.
    * Seeded walks over neighbour lists (Rank Degree, Forest Fire) depend on
    * this order.
    */
  def fromArrays(n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double],
                 bothDirections: Boolean): Csr = {
    val m = src.length
    val deg = new Array[Int](n + 1)
    var i = 0
    while (i < m) {
      deg(src(i) + 1) += 1
      if (bothDirections) deg(dst(i) + 1) += 1
      i += 1
    }
    i = 1
    while (i <= n) { deg(i) += deg(i - 1); i += 1 }
    val off = deg.clone()
    val sz = if (bothDirections) 2 * m else m
    val tgt = new Array[Int](sz)
    val w = new Array[Double](sz)
    val eid = new Array[Int](sz)
    val cur = deg.clone()
    i = 0
    while (i < m) {
      tgt(cur(src(i))) = dst(i); w(cur(src(i))) = wt(i); eid(cur(src(i))) = i; cur(src(i)) += 1
      if (bothDirections) { tgt(cur(dst(i))) = src(i); w(cur(dst(i))) = wt(i); eid(cur(dst(i))) = i; cur(dst(i)) += 1 }
      i += 1
    }
    new Csr(n, off, tgt, w, eid)
  }
}
