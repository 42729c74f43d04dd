package repro.metrics

import java.util.concurrent.ForkJoinPool
import repro.core.{DriverPool, GraphOps, SparkGraph}

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
  * summed on the driver for 100 random vectors at once: the spectral
  * sparsification criterion xᵀL̃x ≈ xᵀLx (Spielman & Teng, STOC 2004;
  * Spielman & Srivastava, STOC 2008).
  *
  * The vectors are the first n·nVectors values of [[gaussians]], vector k
  * holding values k·n until (k + 1)·n. The forms run one vector per task
  * on a `DriverPool` pool (the trailing `pool`), each summing its edges in
  * edge order, so they give the same bits for every pool size.
  */
object QuadraticForm {

  /** xᵀLx for each vector x in `xs`, each a sum over the edges in edge order. */
  private[repro] def qfDriver(g: SparkGraph, xs: Array[Array[Double]],
                              pool: ForkJoinPool = DriverPool.shared): Array[Double] = {
    val (src, dst, wt) = GraphOps.collectEdges(g)
    val out = new Array[Double](xs.length)
    DriverPool.forEach(pool, xs.length) { k =>
      val x = xs(k)
      var q = 0.0
      var e = 0
      while (e < src.length) {
        val d = x(src(e)) - x(dst(e))
        q += wt(e) * d * d
        e += 1
      }
      out(k) = q
    }
    out
  }

  /** The ratio x L̃ x / x L x of a sparsified graph, averaged over `nVectors`
    * random vectors (closer to 1 is better; ER-weighted is the only
    * sparsifier designed to hold this). The vectors and every xᵀLx of
    * `orig` are computed here, once; each call of the result computes the
    * sparsified graph's forms. Vectors with xᵀLx ≤ 1e-12 are skipped and
    * the ratios are added in vector order. When every vector is skipped, as
    * on an edgeless `orig`, the mean is NaN (a sweep prints `n/a`).
    */
  def ratioTo(orig: SparkGraph, nVectors: Int = 100, seed: Long = 0,
              pool: ForkJoinPool = DriverPool.shared): SparkGraph => Double = {
    val n = orig.numVertices
    val stream = gaussians(seed, Math.multiplyExact(n, nVectors), pool)
    val xs = Array.tabulate(nVectors)(k => java.util.Arrays.copyOfRange(stream, k * n, k * n + n))
    val qo = qfDriver(orig, xs, pool)
    spar => {
      val qs = qfDriver(spar, xs, pool)
      var sum = 0.0
      var count = 0
      var k = 0
      while (k < nVectors) {
        if (qo(k) > 1e-12) { sum += qs(k) / qo(k); count += 1 }
        k += 1
      }
      sum / count
    }
  }

  /** [[ratioTo]] for one sparsified graph: draws the vectors on every call.
    * NaN when `orig` has no edges.
    */
  def meanRatio(orig: SparkGraph, spar: SparkGraph, nVectors: Int = 100, seed: Long = 0,
                pool: ForkJoinPool = DriverPool.shared): Double =
    ratioTo(orig, nVectors, seed, pool)(spar)

  /** Pairs of values per phase-2 task of [[gaussians]]. */
  private[repro] val GaussianChunk = 4096

  /** The first `len` values of `new java.util.Random(seed).nextGaussian()`,
    * bit for bit, by that class's specified algorithm:
    *
    *  - the state starts at (seed ^ 0x5DEECE66D) mod 2⁴⁸, and `next(b)`
    *    sets it to (state · 0x5DEECE66D + 0xB) mod 2⁴⁸ and returns its top
    *    b bits;
    *  - `nextDouble` is ((next(26) << 27) + next(27)) · 2⁻⁵³;
    *  - each pair of values comes from the polar method: draw
    *    v1 = 2·nextDouble − 1 and v2 = 2·nextDouble − 1 until
    *    s = v1² + v2² is in (0, 1); the pair is (v1·m, v2·m) with
    *    m = `StrictMath.sqrt(-2 * StrictMath.log(s) / s)`.
    *
    * Phase 1 runs the generator on the calling thread, with no lock, and
    * keeps each accepted (v1, v2, s). Phase 2 computes the multipliers m on
    * `pool`, `GaussianChunk` pairs per task, and scales the pairs in place.
    * Every value takes the same operations whatever the pool, so the pool
    * size moves no bit. `StrictMath` stays: `Math.log` may differ from it
    * in the last bit.
    */
  def gaussians(seed: Long, len: Int, pool: ForkJoinPool = DriverPool.shared): Array[Double] = {
    val pairs = len / 2 + len % 2
    val out = new Array[Double](len)
    val s = new Array[Double](pairs)
    val lcg = new Lcg(seed)
    var p = 0
    while (p < pairs) {
      var v1, v2 = 0.0
      var sp = 1.0
      while (sp >= 1 || sp == 0) {
        v1 = 2 * lcg.nextDouble() - 1
        v2 = 2 * lcg.nextDouble() - 1
        sp = v1 * v1 + v2 * v2
      }
      out(2 * p) = v1
      if (2 * p + 1 < len) out(2 * p + 1) = v2
      s(p) = sp
      p += 1
    }
    DriverPool.forEach(pool, (pairs + GaussianChunk - 1) / GaussianChunk) { c =>
      val end = math.min(pairs, (c + 1) * GaussianChunk)
      var p = c * GaussianChunk
      while (p < end) { scale(out, s, p); p += 1 }
    }
    out
  }

  /** Scales pair p of `out` by its polar-method multiplier. A method of its
    * own, so the JIT compiles it after a few hundred calls rather than after
    * the chunk loop's back-edge count: on a fresh JVM, several threads
    * interpreting one loop at once run it several times slower than one.
    */
  private def scale(out: Array[Double], s: Array[Double], p: Int): Unit = {
    val m = StrictMath.sqrt(-2 * StrictMath.log(s(p)) / s(p))
    out(2 * p) *= m
    if (2 * p + 1 < out.length) out(2 * p + 1) *= m
  }

  /** `java.util.Random`'s 48-bit linear congruential generator, unsynchronized. */
  private final class Lcg(seed: Long) {
    private val Mask = (1L << 48) - 1
    private val DoubleUnit = 1.0 / (1L << 53)
    private var state = (seed ^ 0x5DEECE66DL) & Mask
    private def next(bits: Int): Long = { state = (state * 0x5DEECE66DL + 0xBL) & Mask; state >>> (48 - bits) }
    def nextDouble(): Double = ((next(26) << 27) + next(27)) * DoubleUnit
  }
}
