package repro.core.sparsifiers

import repro.core.{GraphOps, OnceCache, SparkGraph}
import repro.metrics.Csr

/** Per-edge similarity scores shared by G-Spar, L-Spar, Local Similarity and
  * SCAN — computed once per graph on the driver and cached (the scores do
  * not depend on the prune rate, so re-use across the ρ sweep matters).
  *
  * For an edge (u,v), with deg the degree in the arcs view (out-degree for
  * directed graphs):
  *   - `common`  = |N(u) ∩ N(v)| (out-neighbourhoods for directed graphs),
  *   - `jaccard` = common / (deg(u)+deg(v)−common)              (§2.3.8),
  *   - `scan`    = (common+1) / sqrt((deg(u)+1)(deg(v)+1))      (§2.3.8).
  *
  * Each array is indexed like [[GraphOps.collectEdges]]; callers must not
  * write to them.
  */
final case class SimilarityScores(common: Array[Int], jaccard: Array[Double], scan: Array[Double])

object SimilarityScores {

  private val cache = new OnceCache[SparkGraph.Fingerprint, SimilarityScores]

  /** The scores of every edge of `g`. Cached by graph content. */
  def forGraph(g: SparkGraph): SimilarityScores = cache.getOrCompute(g.fingerprint) {
    val (src, dst, _) = GraphOps.collectEdges(g)
    val c = Csr.fromGraph(g, symmetric = false)
    val m = src.length
    val common = new Array[Int](m)
    // Mark N(u), then count each edge u→x's marked neighbours of x, once
    // per edge (from its src end).
    val mark = Array.fill(c.n)(-1)
    var u = 0
    while (u < c.n) {
      var i = c.offsets(u)
      while (i < c.offsets(u + 1)) { mark(c.nbrs(i)) = u; i += 1 }
      i = c.offsets(u)
      while (i < c.offsets(u + 1)) {
        val e = c.arcEdge(i)
        if (src(e) == u) {
          val x = c.nbrs(i)
          var j = c.offsets(x)
          while (j < c.offsets(x + 1)) { if (mark(c.nbrs(j)) == u) common(e) += 1; j += 1 }
        }
        i += 1
      }
      u += 1
    }
    val jaccard = Array.tabulate(m) { e =>
      val union = c.degree(src(e)) + c.degree(dst(e)) - common(e)
      if (union > 0) common(e).toDouble / union else 0.0
    }
    val scan = Array.tabulate(m) { e =>
      (common(e) + 1).toDouble / math.sqrt((c.degree(src(e)) + 1).toDouble * (c.degree(dst(e)) + 1))
    }
    SimilarityScores(common, jaccard, scan)
  }

  /** Drop cached scores (tests that build many graphs call this). */
  def clear(): Unit = cache.clear()
}
