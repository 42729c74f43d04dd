package repro.metrics

import scala.collection.mutable
import scala.util.Random
import repro.core.SparkGraph

/** Immutable CSR adjacency on the driver — the one substrate for the
  * sequential sparsifiers (Rank Degree, Forest Fire, t-Spanner) and every
  * metric (degrees, triangles, BFS/Dijkstra distances, Brandes betweenness,
  * power iterations, Louvain, max-flow). Graphs in this repro are ≤ ~10⁵ edges
  * (DESIGN.md), so collected arrays are the right tool. The metrics read
  * distances through one path, `ShortestPaths`: batches of up to 64 sources
  * by bit-parallel BFS, or Dijkstra per source on weighted graphs.
  * Components come from one `UnionFind`, once per view. Seeded and ranked
  * passes share `Csr.shuffle`, `Csr.sortedIndices` and each view's
  * `withArcs`.
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

  /** The vertices with a non-empty row in this view, ascending; built once, callers must not write to it. */
  lazy val withArcs: Array[Int] = Array.range(0, n).filter(degree(_) > 0)

  @inline def foreachNbr(v: Int)(f: (Int, Double) => Unit): Unit = {
    var i = offsets(v)
    while (i < offsets(v + 1)) { f(nbrs(i), wts(i)); i += 1 }
  }

  /** Weighted distances from `s` into `dist(off until off + n)`; Infinity = unreachable. */
  def dijkstra(s: Int, dist: Array[Double], off: Int): Unit = {
    java.util.Arrays.fill(dist, off, off + n, Double.PositiveInfinity)
    dist(off + s) = 0.0
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
    pq.enqueue((0.0, s))
    while (pq.nonEmpty) {
      val (d, u) = pq.dequeue()
      if (d <= dist(off + u) + 1e-12) {
        foreachNbr(u) { (v, w) =>
          if (d + w < dist(off + v)) { dist(off + v) = d + w; pq.enqueue((d + w, v)) }
        }
      }
    }
  }

  /** Component labels of this view (weak components of a directed one), numbered
    * by their smallest vertex: a union-find over its arcs, built once per view.
    * Callers must not write to it.
    */
  def components(): Array[Int] = componentLabels

  private lazy val componentLabels: Array[Int] = {
    val uf = new Csr.UnionFind(n)
    for (u <- 0 until n; i <- offsets(u) until offsets(u + 1)) uf.union(u, nbrs(i))
    uf.labels()
  }

  /** The same-component pairs of this view; built once per view. */
  lazy val componentPairs: Csr.ComponentPairs = new Csr.ComponentPairs(componentLabels)
}

object Csr {

  /** Union-find over 0 until n with path halving and no rank: `union(a, b)`
    * runs `find(a)`, then `find(b)`, then links the first root under the
    * second. Kruskal and `GraphGen.connect` depend on exactly these steps.
    */
  final class UnionFind(n: Int) {
    private val parent = Array.range(0, n)

    def find(x: Int): Int = { var r = x; while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }; r }

    /** Links the sets of `a` and `b`; false if they were already one set. */
    def union(a: Int, b: Int): Boolean = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(ra) = rb
      ra != rb
    }

    /** Each element's set label, sets numbered by their smallest element. */
    def labels(): Array[Int] = {
      val label = Array.fill(n)(-1)
      var sets = 0
      Array.tabulate(n) { v =>
        val r = find(v)
        if (label(r) < 0) { label(r) = sets; sets += 1 }
        label(r)
      }
    }
  }

  /** Same-component vertex pairs of a graph whose component labels are
    * `comp` (from `components()`): `draw` picks a component of ≥ 2 vertices
    * with probability proportional to its number of ordered pairs, so a pair
    * drawn inside it is uniform over all same-component pairs.
    *
    * `draw` walks the groups in the iteration order of the map built by
    * `comp.indices.groupBy(comp)`: any rewrite of that grouping changes which
    * component a draw picks, and so moves Fig 4a and Fig 12
    * (`TraversalParitySpec` pins it).
    */
  final class ComponentPairs(comp: Array[Int]) {
    private val groups = comp.indices.groupBy(comp).values.filter(_.size >= 2).toArray
    private val cum = groups.map(c => c.size.toLong * (c.size - 1)).scanLeft(0L)(_ + _).tail

    def isEmpty: Boolean = groups.isEmpty

    /** The number of ordered same-component pairs; 0 with no groups. */
    def total: Long = cum.lastOption.getOrElse(0L)

    /** The vertices of a drawn component, for one `rng.nextDouble()`. */
    def draw(rng: Random): IndexedSeq[Int] = {
      val d = (rng.nextDouble() * cum.last).toLong
      groups(cum.indexWhere(_ > d))
    }
  }

  /** Shortest-path distances from a batch of up to `Batch` sources; row k
    * holds the distances from `sources(offset + k)`.
    *
    * Unweighted graphs run one bit-parallel multi-source BFS per batch
    * (Then et al., "The More the Merrier", VLDB 2015): each vertex has one
    * `Long` word of `seen`, `frontier` and `next` bits, bit k standing for
    * source k, so one scan of an arc advances every source whose frontier
    * holds its tail. Each level visits only the vertices whose frontier word
    * is non-zero, so a batch of one costs what a single BFS costs. Weighted
    * graphs run `dijkstra` once per source into the same rows.
    */
  final class ShortestPaths(c: Csr, weighted: Boolean) {
    import ShortestPaths.Batch
    private val n = c.n
    private var count = 0
    private var rows = 0 // sources the distance rows have room for
    private var hops: Array[Int] = Array.emptyIntArray         // -1 = unreachable
    private var wd: Array[Double] = Array.emptyDoubleArray     // Infinity = unreachable
    private val src = new Array[Int](Batch)
    private val eccs = new Array[Double](Batch)
    private val one = new Array[Int](1)
    // The BFS words: all zero between batches, except `seen` on the vertices
    // that some source reached, `order(0 until reached)`.
    private val seen, frontier, next = new Array[Long](n)
    private val order = new Array[Int](n)
    private var reached = 0
    private val levelA, levelB = new Array[Int](n) // this level's and the next level's vertices

    /** Distances from `sources(offset until offset + count)`, count ≤ `Batch`. */
    def from(sources: Array[Int], offset: Int, count: Int): this.type = {
      require(count >= 0 && count <= Batch, s"a batch holds at most $Batch sources, not $count")
      clearBfs()
      if (count > rows) {
        rows = count
        if (weighted) wd = new Array[Double](rows * n)
        else { hops = new Array[Int](rows * n); java.util.Arrays.fill(hops, -1) }
      }
      this.count = count
      System.arraycopy(sources, offset, src, 0, count)
      if (weighted) {
        var k = 0
        while (k < count) {
          c.dijkstra(src(k), wd, k * n)
          var e = 0.0; var v = 0
          while (v < n) { val d = wd(k * n + v); if (d.isFinite && d > e) e = d; v += 1 }
          eccs(k) = e
          k += 1
        }
      } else multiSourceBfs()
      this
    }

    /** A batch of one: the distances from `s`, read as row 0. */
    def from(s: Int): this.type = { one(0) = s; from(one, 0, 1) }

    /** Distance from source k to `v`; Infinity = unreachable. */
    def apply(k: Int, v: Int): Double = {
      check(k)
      if (weighted) wd(k * n + v) else { val h = hops(k * n + v); if (h < 0) Double.PositiveInfinity else h }
    }

    /** Distance from the source of a batch of one. */
    def apply(v: Int): Double = apply(0, v)

    /** The eccentricity of source k: its largest finite distance. */
    def ecc(k: Int): Double = { check(k); eccs(k) }

    /** Source k's eccentricity and the smallest vertex id at it. */
    def farthest(k: Int): (Double, Int) = {
      val e = ecc(k)
      var far = src(k) // the source itself reaches nothing else
      if (e > 0) { far = 0; while (apply(k, far) != e) far += 1 }
      (e, far)
    }

    /** `farthest(0)`: for a batch of one. */
    def farthest: (Double, Int) = farthest(0)

    /** Sum of source k's finite distances, in vertex-id order. */
    def sum(k: Int): Double = {
      var t = 0.0; var v = 0
      while (v < n) { val d = apply(k, v); if (d.isFinite) t += d; v += 1 }
      t
    }

    private def check(k: Int): Unit =
      if (k < 0 || k >= count) throw new IndexOutOfBoundsException(s"source $k of a batch of $count")

    /** Resets the rows and words that the previous batch wrote. */
    private def clearBfs(): Unit = {
      if (reached > 0) java.util.Arrays.fill(hops, 0, count * n, -1)
      var i = 0
      while (i < reached) { seen(order(i)) = 0L; i += 1 }
      reached = 0
    }

    private def multiSourceBfs(): Unit = {
      val (off, nbrs, seen, frontier, next, hops) = (c.offsets, c.nbrs, this.seen, this.frontier, this.next, this.hops)
      var thisLevel = levelA; var nextLevel = levelB
      var nCur = 0
      var k = 0
      while (k < count) {
        val s = src(k); val bit = 1L << k
        if (seen(s) == 0L) { order(reached) = s; reached += 1; thisLevel(nCur) = s; nCur += 1 }
        seen(s) |= bit; frontier(s) |= bit
        hops(k * n + s) = 0; eccs(k) = 0.0
        k += 1
      }
      var level = 0
      while (nCur > 0) {
        level += 1
        var nNext = 0
        var i = 0
        while (i < nCur) {
          val u = thisLevel(i); val f = frontier(u); frontier(u) = 0L
          var a = off(u); val end = off(u + 1)
          while (a < end) {
            val v = nbrs(a); val bits = f & ~seen(v)
            if (bits != 0L) {
              if (next(v) == 0L) { nextLevel(nNext) = v; nNext += 1 }
              next(v) |= bits
            }
            a += 1
          }
          i += 1
        }
        i = 0
        while (i < nNext) {
          val v = nextLevel(i); var bits = next(v); next(v) = 0L
          if (seen(v) == 0L) { order(reached) = v; reached += 1 }
          seen(v) |= bits; frontier(v) = bits
          while (bits != 0L) {
            val k = java.lang.Long.numberOfTrailingZeros(bits)
            hops(k * n + v) = level; eccs(k) = level
            bits &= bits - 1
          }
          i += 1
        }
        val t = thisLevel; thisLevel = nextLevel; nextLevel = t
        nCur = nNext
      }
    }
  }

  object ShortestPaths {

    /** Sources per batch: one bit of a `Long` each. */
    val Batch = 64

    /** Calls `f(offset, count)` for each batch of `total` sources, in order. */
    def batches(total: Int)(f: (Int, Int) => Unit): Unit = {
      var b = 0
      while (b < total) { val k = math.min(Batch, total - b); f(b, k); b += k }
    }
  }

  /** The indices of `key` in ascending (key, `tieLt`) order. `tieLt` must
    * strictly order the indices of equal keys, so the order is total and the
    * result unique; keys compare by `<` and `==`, so they must not be NaN.
    * A bottom-up merge sort that moves each key with its index: comparisons
    * read the keys in sequence, and nothing is boxed.
    */
  def sortedIndices(key: Array[Double], tieLt: (Int, Int) => Boolean): Array[Int] = {
    val n = key.length
    var fromKey = key.clone(); var fromIdx = Array.range(0, n)
    var toKey = new Array[Double](n); var toIdx = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n); val hi = math.min(lo + 2 * width, n)
        var i = lo; var j = mid; var k = lo
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

  /** Shuffles `xs(0 until len)` in place with the swaps that
    * `rng.shuffle` makes on a sequence of length `len`: for i from `len`
    * down to 2, swap i − 1 with `rng.nextInt(i)`.
    */
  def shuffle(rng: Random, xs: Array[Int], len: Int): Unit = {
    var i = len
    while (i >= 2) {
      val k = rng.nextInt(i)
      val t = xs(i - 1); xs(i - 1) = xs(k); xs(k) = t
      i -= 1
    }
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
