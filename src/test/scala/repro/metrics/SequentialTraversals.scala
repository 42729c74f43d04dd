package repro.metrics

import scala.util.Random
import repro.core.SparkGraph
import repro.metrics.Distances.StretchResult

/** Test oracle: the one-thread loops that `Centrality.betweenness`,
  * `Centrality.closeness`, `Distances.spspStretch` and
  * `Distances.eccentricityStretch` ran before they ran on a pool. Every sum
  * is made in the order those loops made it, so the pool kernels must give
  * the same bits for any pool size.
  */
object SequentialTraversals {

  /** Calls `f(offset, count)` for each batch of `total` sources, in order. */
  def batches(total: Int)(f: (Int, Int) => Unit): Unit = {
    var b = 0
    while (b < total) { val k = math.min(Csr.ShortestPaths.Batch, total - b); f(b, k); b += k }
  }

  /** Brandes, one source at a time, each δ(w) added into bc(w) as it pops. */
  def betweenness(g: SparkGraph): Array[Double] = {
    val c = Csr.undirected(g)
    val (off, nbrs) = (c.offsets, c.nbrs)
    val bc = new Array[Double](c.n)
    val sigma = new Array[Double](c.n)
    val delta = new Array[Double](c.n)
    val dist = Array.fill(c.n)(-1)
    val order = new Array[Int](c.n)
    var s = 0
    while (s < c.n) {
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
        if (w != s) {
          val dw = dist(w) - 1; val sw = sigma(w); val cw = 1.0 + delta(w); val end = off(w + 1)
          var i = off(w)
          while (i < end) { val u = nbrs(i); if (dist(u) == dw) delta(u) += sigma(u) / sw * cw; i += 1 }
          bc(w) += delta(w)
        }
        dist(w) = -1; sigma(w) = 0.0; delta(w) = 0.0
      }
      s += 1
    }
    bc
  }

  def closeness(g: SparkGraph): Array[Double] = {
    val c = Csr.fromGraph(g, symmetric = true)
    val paths = new Csr.ShortestPaths(c, g.weighted)
    val sources = c.withArcs
    val cl = new Array[Double](c.n)
    batches(sources.length) { (b, count) =>
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

  def spspStretch(orig: SparkGraph, spar: SparkGraph, nPairs: Int, seed: Long): StretchResult = {
    val co = Csr.fromGraph(orig, symmetric = true)
    val cs = Csr.fromGraph(spar, symmetric = true)
    val pairs = co.componentPairs
    if (pairs.isEmpty) return StretchResult(Double.NaN, 1.0, 0)
    val rng = new Random(seed)
    val perSource = 10
    val nSources = math.max(1, nPairs / perSource)
    val us = new Array[Int](nSources)
    val vs = new Array[Int](nSources * perSource)
    var s = 0
    while (s < nSources) {
      val compVs = pairs.draw(rng)
      us(s) = compVs(rng.nextInt(compVs.size))
      var t = 0
      while (t < perSource) { vs(s * perSource + t) = compVs(rng.nextInt(compVs.size)); t += 1 }
      s += 1
    }
    val dOrig = new Csr.ShortestPaths(co, orig.weighted)
    val dSpar = new Csr.ShortestPaths(cs, spar.weighted)
    var stretchSum = 0.0; var reached = 0; var lost = 0
    batches(nSources) { (b, count) =>
      dOrig.from(us, b, count); dSpar.from(us, b, count)
      var k = 0
      while (k < count) {
        var i = (b + k) * perSource
        while (i < (b + k + 1) * perSource) {
          val v = vs(i)
          if (v != us(b + k) && dOrig(k, v).isFinite && dOrig(k, v) > 0) {
            if (dSpar(k, v).isFinite) { stretchSum += dSpar(k, v) / dOrig(k, v); reached += 1 }
            else lost += 1
          }
          i += 1
        }
        k += 1
      }
    }
    val tried = reached + lost
    StretchResult(
      if (reached > 0) stretchSum / reached else Double.NaN,
      if (tried > 0) lost.toDouble / tried else 1.0,
      tried)
  }

  def eccentricityStretch(orig: SparkGraph, spar: SparkGraph, nSources: Int, seed: Long): StretchResult = {
    val co = Csr.fromGraph(orig, symmetric = true)
    val cs = Csr.fromGraph(spar, symmetric = true)
    val rng = new Random(seed)
    val candidates = co.withArcs
    if (candidates.isEmpty) return StretchResult(Double.NaN, 1.0, 0)
    val drawn = Array.fill(nSources)(candidates(rng.nextInt(candidates.length)))
    val sources = drawn.filter(cs.degree(_) > 0)
    val isolated = nSources - sources.length
    val dOrig = new Csr.ShortestPaths(co, orig.weighted)
    val dSpar = new Csr.ShortestPaths(cs, spar.weighted)
    var sum = 0.0; var used = 0
    batches(sources.length) { (b, count) =>
      dOrig.from(sources, b, count); dSpar.from(sources, b, count)
      var k = 0
      while (k < count) {
        val eo = dOrig.ecc(k)
        if (eo > 0) { sum += dSpar.ecc(k) / eo; used += 1 }
        k += 1
      }
    }
    StretchResult(if (used > 0) sum / used else Double.NaN,
      isolated.toDouble / nSources, used + isolated)
  }
}
