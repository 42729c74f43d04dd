package repro.metrics

import java.util.concurrent.ForkJoinPool
import repro.core.{DriverPool, SparkGraph}

/** Centrality metrics (§2.2.3), PageRank (§2.2.5) and the top-k precision
  * evaluator (§3.3.3).
  *
  * Brandes betweenness is exact (our graphs are ~100× smaller than the
  * paper's, so exact is cheaper than the paper's 500-sample Geisberger
  * approximation and strictly more accurate). Closeness is exact BFS from
  * every vertex. Both run their sources on a `DriverPool` pool (the
  * trailing `pool`) in a fixed reduction order, so they give the same bits
  * for every pool size. Eigenvector and Katz are power iterations;
  * directed graphs use the left eigenvector (Table 1 footnote) — scores
  * flow along edge direction u→v.
  */
object Centrality {

  /** Exact Brandes betweenness on the undirected simple (symmetrized) graph.
    * The forward BFS counts σ(v) += σ(u) in the row scan that discovers v
    * (Brandes 2001, Alg. 1); its `Int` queue is the visit order. With no
    * predecessor lists, the backward pass walks that order in reverse and
    * re-scans each row for neighbours one hop closer, so every δ term is
    * added in stack-pop order.
    *
    * Sources run in blocks of `Block` on `pool` (Bader & Madduri, ICPP
    * 2006), each worker with its own σ, δ and dist; a source writes its δ
    * into a row of its own, 0 at the source and at every vertex it does not
    * reach. The blocks run in waves of `pool.getParallelism`, and after each
    * wave the rows are added into `bc` in source order, so every bc(w) gets
    * the additions of a one-source-at-a-time loop, in its order, for any
    * pool size.
    */
  def betweenness(g: SparkGraph, pool: ForkJoinPool = DriverPool.shared): Array[Double] = {
    val c = Csr.undirected(g)
    val n = c.n
    val bc = new Array[Double](n)
    val blocks = (n + Block - 1) / Block
    val wave = math.max(1, math.min(pool.getParallelism, blocks))
    val rows = new Array[Double](Math.multiplyExact(wave * Block, n))
    var first = 0 // the wave's first block
    while (first < blocks) {
      val inWave = math.min(wave, blocks - first)
      DriverPool.forEachWith(pool, inWave)(new Brandes(c)) { (brandes, t) =>
        val s0 = (first + t) * Block
        var s = s0
        while (s < math.min(s0 + Block, n)) { brandes.deltaRow(s, rows, ((s - s0) + t * Block) * n); s += 1 }
      }
      val sources = math.min(inWave * Block, n - first * Block)
      var r = 0
      while (r < sources) {
        val base = r * n
        var w = 0
        while (w < n) { bc(w) += rows(base + w); w += 1 }
        r += 1
      }
      first += inWave
    }
    bc
  }

  /** Sources per betweenness task. */
  private val Block = 64

  /** One worker's Brandes scratch: σ, δ, dist and the visit order. */
  private final class Brandes(c: Csr) {
    private val (off, nbrs) = (c.offsets, c.nbrs)
    private val sigma = new Array[Double](c.n)
    private val delta = new Array[Double](c.n)
    private val dist = Array.fill(c.n)(-1)
    private val order = new Array[Int](c.n)

    /** Writes source s's dependency δ_s(w) into `row(at + w)` for every w:
      * 0 at s and at every vertex s does not reach.
      */
    def deltaRow(s: Int, row: Array[Double], at: Int): Unit = {
      java.util.Arrays.fill(row, at, at + c.n, 0.0)
      dist(s) = 0; sigma(s) = 1.0; order(0) = s
      var head = 0; var tail = 1
      while (head < tail) {
        val u = order(head); head += 1
        val du = dist(u) + 1; val su = sigma(u); val end = off(u + 1)
        var i = off(u)
        while (i < end) {
          val v = nbrs(i)
          if (dist(v) < 0) { dist(v) = du; order(tail) = v; tail += 1 }
          if (dist(v) == du) sigma(v) += su
          i += 1
        }
      }
      var k = tail
      while (k > 0) {
        k -= 1
        val w = order(k)
        if (w != s) { // s has no predecessors, and its cleared neighbours would read as dist −1
          val dw = dist(w) - 1; val sw = sigma(w); val cw = 1.0 + delta(w); val end = off(w + 1)
          var i = off(w)
          while (i < end) { val u = nbrs(i); if (dist(u) == dw) delta(u) += sigma(u) / sw * cw; i += 1 }
          row(at + w) = delta(w)
        }
        dist(w) = -1; sigma(w) = 0.0; delta(w) = 0.0 // w's successors are all popped: clear it for the next source
      }
    }
  }

  /** Closeness C(v) = 1/Σ_u d(u,v) over vertices reachable from v. The
    * source batches run on `pool`, each worker with its own
    * `ShortestPaths`; each cl(v) is written once, by the batch that holds v.
    */
  def closeness(g: SparkGraph, pool: ForkJoinPool = DriverPool.shared): Array[Double] = {
    val c = Csr.fromGraph(g, symmetric = true)
    val sources = c.withArcs
    val cl = new Array[Double](c.n)
    val batch = Csr.ShortestPaths.Batch
    DriverPool.forEachWith(pool, (sources.length + batch - 1) / batch)(new Csr.ShortestPaths(c, g.weighted)) { (paths, j) =>
      val b = j * batch; val count = math.min(batch, sources.length - b)
      paths.from(sources, b, count)
      var k = 0
      while (k < count) {
        val sum = paths.sum(k)
        if (sum > 0) cl(sources(b + k)) = 1.0 / sum
        k += 1
      }
    }
    cl
  }

  /** Power-iteration eigenvector centrality. Directed: left eigenvector
    * (x ← xA, i.e. score flows u→v along each arc).
    */
  def eigenvector(g: SparkGraph, iters: Int = 100): Array[Double] = {
    val c = Csr.fromGraph(g, symmetric = !g.directed)
    val n = c.n
    var x = Array.fill(n)(1.0 / math.sqrt(n.toDouble))
    var it = 0
    while (it < iters) {
      val nx = new Array[Double](n)
      var u = 0
      while (u < n) {
        c.foreachNbr(u)((v, w) => nx(v) += x(u) * w)
        u += 1
      }
      val norm = math.sqrt(nx.map(a => a * a).sum)
      x = if (norm > 1e-300) nx.map(_ / norm) else nx
      it += 1
    }
    x
  }

  /** Katz centrality C(v) = Σ_k Σ_u α^k (A^k)_{uv} via the fixed point of
    * x ← αAᵀ(x + 1); α = 1/(maxDegree+1) per §2.2.3 (computed per graph).
    */
  def katz(g: SparkGraph, iters: Int = 200): Array[Double] = {
    val c = Csr.fromGraph(g, symmetric = !g.directed)
    val n = c.n
    val maxDeg = Csr.fromGraph(g, symmetric = true).maxDegree
    val alpha = 1.0 / (maxDeg + 1.0)
    var x = new Array[Double](n)
    var it = 0
    var delta = Double.MaxValue
    while (it < iters && delta > 1e-10) {
      val nx = new Array[Double](n)
      var u = 0
      while (u < n) {
        c.foreachNbr(u)((v, w) => nx(v) += alpha * (x(u) + 1.0) * w)
        u += 1
      }
      delta = x.indices.map(i => math.abs(nx(i) - x(i))).max
      x = nx
      it += 1
    }
    x
  }

  /** PageRank (§2.2.5) by `iters` power iterations from the uniform vector:
    * damping 0.85, transition probability proportional to arc weight (1/k
    * for unweighted graphs), dangling mass redistributed uniformly. Scores
    * flow along directed arcs; undirected edges carry them both ways.
    */
  def pagerank(g: SparkGraph, iters: Int = 20): Array[Double] = {
    val d = 0.85
    val c = Csr.fromGraph(g, symmetric = !g.directed)
    val n = c.n
    val outW = Array.tabulate(n) { u => var s = 0.0; c.foreachNbr(u)((_, w) => s += w); s }
    var pr = Array.fill(n)(1.0 / n)
    var it = 0
    while (it < iters) {
      val nx = Array.fill(n)((1.0 - d) / n)
      var dangling = 0.0
      var u = 0
      while (u < n) {
        if (outW(u) > 0) c.foreachNbr(u)((v, w) => nx(v) += d * pr(u) * w / outW(u))
        else dangling += pr(u)
        u += 1
      }
      val share = d * dangling / n
      var i = 0
      while (i < n) { nx(i) += share; i += 1 }
      pr = nx
      it += 1
    }
    pr
  }

  /** Top-k precision (§3.3.3): overlap of the top-k vertex sets, ties broken
    * by vertex id for determinism. k=100 in the paper. Scores must not be
    * NaN.
    */
  def topKPrecision(orig: Array[Double], spar: Array[Double], k: Int = 100): Double = {
    def topK(s: Array[Double]): Array[Int] = Csr.sortedIndices(s.map(-_), _ < _).take(k)
    val kk = math.min(k, orig.length)
    topK(orig).intersect(topK(spar).toSeq).length.toDouble / kk
  }
}
