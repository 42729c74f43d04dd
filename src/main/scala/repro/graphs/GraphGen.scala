package repro.graphs

import scala.collection.mutable
import scala.util.Random
import repro.metrics.Csr

/** Deterministic synthetic graph generators (driver-side edge lists).
  *
  * These stand in for the paper's 14 downloaded graphs (no network egress in
  * this environment — see DESIGN.md "Substitutions"). Each generator is
  * matched to a category of Table 3: preferential attachment for social
  * graphs (power-law hubs), stochastic block models for community graphs,
  * Watts–Strogatz for high-clustering collaboration graphs, and a directed
  * power-law model for web graphs.
  *
  * All generators return de-duplicated, loop-free pairs; undirected pairs
  * are canonical (u < v).
  */
object GraphGen {

  private def canonPair(u: Int, v: Int): (Int, Int) = if (u < v) (u, v) else (v, u)

  /** Barabási–Albert preferential attachment: each new vertex attaches m
    * edges to existing vertices chosen ∝ degree. Power-law, connected.
    */
  def barabasiAlbert(n: Int, m: Int, seed: Long, offset: Int = 0): Set[(Int, Int)] = {
    require(n > m && m >= 1)
    val rng = new Random(seed)
    val edges = mutable.Set.empty[(Int, Int)]
    // repeated-endpoint list implements degree-proportional choice
    val ends = mutable.ArrayBuffer.empty[Int]
    for (v <- 1 until (m + 1)) { edges += canonPair(offset, offset + v); ends += 0; ends += v }
    for (v <- (m + 1) until n) {
      val chosen = mutable.Set.empty[Int]
      var tries = 0
      while (chosen.size < m && tries < 20 * m) {
        chosen += ends(rng.nextInt(ends.length)); tries += 1
      }
      chosen.foreach { u => edges += canonPair(offset + u, offset + v); ends += u; ends += v }
    }
    edges.toSet
  }

  /** Directed power-law web-like graph: preferential out-links plus a few
    * uniformly random links (so in- and out-degree are both heavy-tailed).
    */
  def directedPowerLaw(n: Int, mOut: Int, seed: Long): Set[(Int, Int)] = {
    val rng = new Random(seed)
    val edges = mutable.Set.empty[(Int, Int)]
    val ends = mutable.ArrayBuffer(0, 1)
    edges += ((0, 1))
    for (v <- 2 until n) {
      var added = 0; var tries = 0
      while (added < mOut && tries < 20 * mOut) {
        val u = if (rng.nextDouble() < 0.85) ends(rng.nextInt(ends.length)) else rng.nextInt(v)
        if (u != v && !edges.contains((v, u))) { edges += ((v, u)); ends += u; ends += v; added += 1 }
        tries += 1
      }
    }
    edges.toSet
  }

  /** Stochastic block model: k equal blocks, intra-block edge prob pIn,
    * inter-block pOut. Sampling uses geometric skipping so sparse graphs
    * cost O(|E|), not O(n²).
    */
  def sbm(n: Int, k: Int, pIn: Double, pOut: Double, seed: Long): Set[(Int, Int)] = {
    val rng = new Random(seed)
    val block = sbmBlocks(n, k)
    val edges = mutable.Set.empty[(Int, Int)]
    // enumerate pairs (u,v) u<v by skipping: index pairs lexicographically
    def sample(p: Double, accept: (Int, Int) => Boolean): Unit = {
      if (p <= 0) return
      val total = n.toLong * (n - 1) / 2
      var idx = -1L
      val logq = math.log1p(-p)
      while ({
        val skip = if (p >= 1.0) 1L else (math.log(1.0 - rng.nextDouble()) / logq).toLong + 1L
        idx += skip
        idx < total
      }) {
        // Invert pair index -> (b, a) with a > b: pairs before a = a(a-1)/2.
        var a = ((1 + math.sqrt(1.0 + 8.0 * idx)) / 2).toInt
        while (a.toLong * (a - 1) / 2 > idx) a -= 1
        while ((a + 1).toLong * a / 2 <= idx) a += 1
        val b = (idx - a.toLong * (a - 1) / 2).toInt
        if (a < n && b < a && accept(b, a)) edges += canonPair(b, a)
      }
    }
    sample(pOut, (u, v) => block(u) != block(v))
    sample(pIn, (u, v) => block(u) == block(v))
    edges.toSet
  }

  /** Block assignment used by [[sbm]] — needed by GNN labels. */
  def sbmBlocks(n: Int, k: Int): Array[Int] = Array.tabulate(n)(_ * k / n)

  /** Watts–Strogatz small world: ring lattice with k nearest neighbours,
    * each edge rewired with probability beta. High clustering coefficient.
    */
  def wattsStrogatz(n: Int, k: Int, beta: Double, seed: Long): Set[(Int, Int)] = {
    val rng = new Random(seed)
    val edges = mutable.Set.empty[(Int, Int)]
    for (u <- 0 until n; j <- 1 to k / 2) {
      val v0 = (u + j) % n
      val v = if (rng.nextDouble() < beta) {
        var x = rng.nextInt(n); var tries = 0
        while ((x == u || edges.contains(canonPair(u, x))) && tries < 50) { x = rng.nextInt(n); tries += 1 }
        if (x == u) v0 else x
      } else v0
      if (u != v) edges += canonPair(u, v)
    }
    edges.toSet
  }

  /** Dense weighted graph with overlapping soft communities — the
    * human_gene2 stand-in. Returns weighted triples.
    */
  def denseWeighted(n: Int, k: Int, pIn: Double, pOut: Double, seed: Long): Seq[(Int, Int, Double)] = {
    val rng = new Random(seed)
    val pairs = sbm(n, k, pIn, pOut, seed)
    pairs.toSeq.sorted.map { case (u, v) => (u, v, 0.1 + 9.9 * rng.nextDouble()) }
  }

  /** Append small satellite BA components so the graph is disconnected —
    * models Table 3's unconnected graphs (email-Enron, ca-*, web-*).
    * Returns (pairs, totalVertices).
    */
  def withSatellites(
      main: Set[(Int, Int)],
      nMain: Int,
      nSatellites: Int,
      satSize: Int,
      seed: Long): (Set[(Int, Int)], Int) = {
    var pairs = main
    var base = nMain
    for (s <- 0 until nSatellites) {
      pairs = pairs ++ barabasiAlbert(satSize, 2, seed + 31 * s, offset = base)
      base += satSize
    }
    (pairs, base)
  }

  /** Make a pair set connected by chaining components with random edges. */
  def connect(pairs: Set[(Int, Int)], n: Int, seed: Long): Set[(Int, Int)] = {
    val rng = new Random(seed)
    val uf = new Csr.UnionFind(n)
    val out = mutable.Set.empty[(Int, Int)] ++ pairs
    pairs.foreach { case (u, v) => uf.union(u, v) }
    val roots = (0 until n).filter(v => uf.find(v) == v)
    roots.zip(roots.drop(1)).foreach { case (a, b) =>
      // link a random member of each component pair
      val ca = (0 until n).filter(uf.find(_) == uf.find(a))
      val cb = (0 until n).filter(uf.find(_) == uf.find(b))
      val u = ca(rng.nextInt(ca.length)); val v = cb(rng.nextInt(cb.length))
      out += canonPair(u, v); uf.union(u, v)
    }
    out.toSet
  }
}
