package repro.metrics

import scala.util.Random
import repro.core.{GraphOps, SparkGraph}

/** Graph connectivity measures (§3.3.1): source-destination pair
  * unreachable ratio and vertex isolated ratio. Pair reachability is exact
  * (from connected-component sizes), not sampled — cheaper and noise-free
  * at our scale. Directed graphs are measured on the weak (symmetrized)
  * view, matching the paper's symmetrized sparsifier inputs.
  */
object Connectivity {

  /** Fraction of ordered vertex pairs with no connecting path. Isolated
    * vertices are singleton components, so they count as unreachable.
    */
  def unreachableRatio(g: SparkGraph): Double = {
    val n = g.numVertices.toDouble
    if (n < 2) return 0.0
    1.0 - Csr.fromGraph(g, symmetric = true).componentPairs.total.toDouble / (n * (n - 1))
  }

  /** Fraction of vertices with no incident edge. */
  def isolatedRatio(g: SparkGraph): Double = {
    val c = Csr.fromGraph(g)
    (c.n - c.withArcs.length).toDouble / g.numVertices
  }
}

/** Degree-distribution similarity via Bhattacharyya distance (§3.3.1):
  * "we evenly divide the discrete degree distribution into 100 bins for all
  * graphs" — each graph is binned over its OWN [0, maxDegree] range. That
  * convention is what makes Random nearly shape-invariant in the paper's
  * Fig 2: uniform thinning scales every degree AND the max by (1−ρ), so the
  * normalized histogram barely moves, while biased sparsifiers reshape it.
  * 0 = identical; larger = worse.
  */
object DegreeDistribution {

  val NumBins = 100

  /** Histogram of total (in + out) degrees, the symmetric view's; vertices
    * with no edge count as degree 0.
    */
  def histogram(g: SparkGraph, maxDeg: Int): Array[Double] = {
    val c = Csr.fromGraph(g)
    val bins = new Array[Double](NumBins)
    // 100 bins over THIS graph's [0, maxDeg] — fractional widths are the
    // point: relative (not absolute) degree position is compared.
    val width = (maxDeg + 1).toDouble / NumBins
    (0 until c.n).foreach { v => bins(math.min(NumBins - 1, (c.degree(v) / width).toInt)) += 1.0 }
    val total = bins.sum
    bins.map(_ / total)
  }

  def bhattacharyya(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length)
    val bc = p.indices.map(i => math.sqrt(p(i) * q(i))).sum
    // bc can exceed 1 by float error for identical distributions; clamp ≥ 0
    math.max(0.0, -math.log(math.max(bc, 1e-300)))
  }

  /** Distance between the original and sparsified degree distributions,
    * each binned over its own degree range (see class doc).
    */
  def distance(orig: SparkGraph, spar: SparkGraph): Double =
    bhattacharyya(histogram(orig, Csr.fromGraph(orig).maxDegree),
      histogram(spar, Csr.fromGraph(spar).maxDegree))
}

/** Laplacian quadratic form xᵀLx = Σ_e w_e (x_u − x_v)² (§2.2.1, §3.3.1),
  * summed on the driver for 100 random vectors at once.
  */
object QuadraticForm {

  /** xᵀLx for each vector x in `xs`, one pass over the edge arrays. */
  private[repro] def qfDriver(g: SparkGraph, xs: Array[Array[Double]]): Array[Double] = {
    val (src, dst, wt) = GraphOps.collectEdges(g)
    val out = new Array[Double](xs.length)
    var e = 0
    while (e < src.length) {
      var k = 0
      while (k < xs.length) {
        val d = xs(k)(src(e)) - xs(k)(dst(e))
        out(k) += wt(e) * d * d
        k += 1
      }
      e += 1
    }
    out
  }

  /** Mean ratio x L̃ x / x L x over `nVectors` random vectors (closer to 1
    * is better; ER-weighted is the only sparsifier designed to hold this).
    */
  def meanRatio(orig: SparkGraph, spar: SparkGraph, nVectors: Int = 100, seed: Long = 0): Double = {
    val rng = new Random(seed)
    val n = orig.numVertices
    val xs = Array.fill(nVectors)(Array.fill(n)(rng.nextGaussian()))
    val qo = qfDriver(orig, xs)
    val qs = qfDriver(spar, xs)
    val ratios = qo.indices.collect { case i if qo(i) > 1e-12 => qs(i) / qo(i) }
    ratios.sum / ratios.length
  }
}
