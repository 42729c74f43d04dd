package repro.metrics

import scala.util.Random
import repro.core.SparkGraph

/** Distance metrics (§2.2.2, measured per §3.3.2): sampled-pair shortest
  * paths (SPSP), sampled-source eccentricity, and the iterated double-sweep
  * approximate diameter. Pairs/sources are sampled within components of the
  * ORIGINAL graph ("we exclude pairs belonging to different communities").
  */
object Distances {

  final case class StretchResult(meanStretch: Double, unreachableFrac: Double, pairs: Int)

  /** Mean SPSP stretch d_spar(u,v)/d_orig(u,v) over sampled reachable pairs.
    * Pairs that become unreachable in the sparsified graph are excluded
    * from the mean and reported as `unreachableFrac` (Fig 4a applies a
    * <20%-over-original acceptability constraint on that fraction).
    */
  def spspStretch(orig: SparkGraph, spar: SparkGraph, nPairs: Int = 2000, seed: Long = 0): StretchResult = {
    val co = Csr.fromGraph(orig, symmetric = true)
    val cs = Csr.fromGraph(spar, symmetric = true)
    val pairs = co.componentPairs
    if (pairs.isEmpty) return StretchResult(Double.NaN, 1.0, 0)
    val rng = new Random(seed)

    // Draw every source and its targets first (no draw reads a distance),
    // then run the sources in batches and add up the pairs in draw order.
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
    Csr.ShortestPaths.batches(nSources) { (b, count) =>
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

  /** Mean eccentricity stretch over sampled non-isolated sources; sources
    * isolated in the sparsified graph are excluded and reported (Fig 4b's
    * vertex-isolated constraint).
    */
  def eccentricityStretch(orig: SparkGraph, spar: SparkGraph, nSources: Int = 200, seed: Long = 0): StretchResult = {
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
    Csr.ShortestPaths.batches(sources.length) { (b, count) =>
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

  /** Approximate diameter (§3.3.2): iterated double sweep — BFS to the
    * farthest vertex, restart from it, repeat; mean over `nSeeds` seeds.
    */
  def approxDiameter(g: SparkGraph, nSeeds: Int = 10, seed: Long = 0): Double = {
    val c = Csr.fromGraph(g, symmetric = true)
    val rng = new Random(seed)
    val candidates = c.withArcs
    if (candidates.isEmpty) return 0.0
    val paths = new Csr.ShortestPaths(c, g.weighted)
    val results = (0 until nSeeds).map { _ =>
      var v = candidates(rng.nextInt(candidates.length))
      var best = 0.0
      var it = 0
      while (it < 4) {
        val (fd, far) = paths.from(v).farthest
        if (fd > best) best = fd
        v = far
        it += 1
      }
      best
    }
    results.sum / results.length
  }
}
