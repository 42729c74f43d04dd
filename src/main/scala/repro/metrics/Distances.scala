package repro.metrics

import java.util.concurrent.ForkJoinPool
import scala.util.Random
import repro.core.{DriverPool, SparkGraph}

/** Distance metrics (§2.2.2, measured per §3.3.2): sampled-pair shortest
  * paths (SPSP), sampled-source eccentricity, and the iterated double-sweep
  * approximate diameter. Pairs/sources are sampled within components of the
  * ORIGINAL graph ("we exclude pairs belonging to different communities").
  *
  * The stretch metrics run their source batches on a `DriverPool` pool (the
  * trailing `pool`; see [[repro.core.DriverPool.forEachWith]]) and add the
  * results up on the calling thread in draw order, so they give the same
  * bits for every pool size. The approximate diameter is sequential: each
  * sweep starts from the vertex the previous one found.
  */
object Distances {

  final case class StretchResult(meanStretch: Double, unreachableFrac: Double, pairs: Int)

  /** Mean SPSP stretch d_spar(u,v)/d_orig(u,v) over sampled reachable pairs.
    * Pairs that become unreachable in the sparsified graph are excluded
    * from the mean and reported as `unreachableFrac` (Fig 4a applies a
    * <20%-over-original acceptability constraint on that fraction).
    */
  def spspStretch(orig: SparkGraph, spar: SparkGraph, nPairs: Int = 2000, seed: Long = 0,
                  pool: ForkJoinPool = DriverPool.shared): StretchResult = {
    val pairs = Csr.fromGraph(orig, symmetric = true).componentPairs
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
    // Each task writes one graph's distance for each pair of its batch.
    val d = Array.ofDim[Double](2, vs.length)
    onBatches(orig, spar, us, pool) { (gi, paths, b, count) =>
      var i = b * perSource
      while (i < (b + count) * perSource) { d(gi)(i) = paths(i / perSource - b, vs(i)); i += 1 }
    }
    val (dO, dS) = (d(0), d(1))
    var stretchSum = 0.0; var reached = 0; var lost = 0
    var i = 0
    while (i < vs.length) {
      if (vs(i) != us(i / perSource) && dO(i).isFinite && dO(i) > 0) {
        if (dS(i).isFinite) { stretchSum += dS(i) / dO(i); reached += 1 }
        else lost += 1
      }
      i += 1
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
  def eccentricityStretch(orig: SparkGraph, spar: SparkGraph, nSources: Int = 200, seed: Long = 0,
                          pool: ForkJoinPool = DriverPool.shared): StretchResult = {
    val co = Csr.fromGraph(orig, symmetric = true)
    val cs = Csr.fromGraph(spar, symmetric = true)
    val rng = new Random(seed)
    val candidates = co.withArcs
    if (candidates.isEmpty) return StretchResult(Double.NaN, 1.0, 0)
    val drawn = Array.fill(nSources)(candidates(rng.nextInt(candidates.length)))
    val sources = drawn.filter(cs.degree(_) > 0)
    val isolated = nSources - sources.length
    val ecc = Array.ofDim[Double](2, sources.length)
    onBatches(orig, spar, sources, pool) { (gi, paths, b, count) =>
      var k = 0
      while (k < count) { ecc(gi)(b + k) = paths.ecc(k); k += 1 }
    }
    val (eo, es) = (ecc(0), ecc(1))
    var sum = 0.0; var used = 0
    var k = 0
    while (k < sources.length) {
      if (eo(k) > 0) { sum += es(k) / eo(k); used += 1 }
      k += 1
    }
    StretchResult(if (used > 0) sum / used else Double.NaN,
      isolated.toDouble / nSources, used + isolated)
  }

  /** Runs `sources` in batches of up to `ShortestPaths.Batch` on `pool`,
    * one task per batch and graph: task 2j runs batch j on the original
    * graph (gi = 0), task 2j + 1 on the sparsified one (gi = 1). Each worker
    * builds one `ShortestPaths` per graph, when it first runs a task on that
    * graph. `f(gi, paths, offset, count)` reads the batch's rows and writes
    * only the batch's own slots.
    */
  private def onBatches(orig: SparkGraph, spar: SparkGraph, sources: Array[Int], pool: ForkJoinPool)(
      f: (Int, Csr.ShortestPaths, Int, Int) => Unit): Unit = {
    val views = Array(orig, spar).map(g => (Csr.fromGraph(g, symmetric = true), g.weighted))
    val batch = Csr.ShortestPaths.Batch
    DriverPool.forEachWith(pool, 2 * ((sources.length + batch - 1) / batch))(
      new Array[Csr.ShortestPaths](2)) { (paths, t) =>
      val gi = t % 2; val b = t / 2 * batch; val count = math.min(batch, sources.length - b)
      if (paths(gi) == null) paths(gi) = new Csr.ShortestPaths(views(gi)._1, views(gi)._2)
      f(gi, paths(gi).from(sources, b, count), b, count)
    }
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
