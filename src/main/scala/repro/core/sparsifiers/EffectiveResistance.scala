package repro.core.sparsifiers

import java.util.concurrent.ForkJoinPool
import scala.collection.concurrent.TrieMap
import scala.util.Random
import repro.core.{DriverPool, GraphOps, PruneRateControl, SparkGraph, Sparsifier}

/** Effective Resistance spectral sparsifier (§2.3.9, Spielman–Srivastava).
  *
  * Resistances are exact: R_e = (e_u−e_v)ᵀ L⁺ (e_u−e_v), computed from a
  * tiled multi-core Cholesky factorization of A = L + J/n + εI, ε = 1e-9·n
  * (see `EffectiveResistance.exact`). J/n lifts the all-ones kernel of L
  * away from zero and leaves R unchanged: e_u−e_v ⟂ 1, and J/n is zero on
  * the complement of 1. εI lifts the kernel vectors of a disconnected
  * graph's other components; it biases R by about ε/λ relative, λ the
  * smallest nonzero eigenvalue of L. The paper offloads this to
  * Laplacians.jl's approximate solver on a 1 TB machine; at our 100×
  * scaled-down graphs the exact dense solve is cheaper and noise-free.
  *
  * Sampling: edge e kept independently with p_e = min(1, c·w_e·R_e), c
  * binary-searched so Σp_e equals the target edge count. The weighted
  * variant reweights kept edges by w_e/p_e, which keeps the Laplacian
  * quadratic form an unbiased estimate of the original — the property the
  * paper's Figure 3 tests. The unweighted variant keeps original weights.
  */
final class EffectiveResistance(reweight: Boolean) extends Sparsifier {
  val name   = if (reweight) "ER-weighted" else "ER-unweighted"
  val abbrev = if (reweight) "ER-w" else "ER-u"
  val supportsDirected = false
  val pruneRateControl = PruneRateControl.Fine
  override val changesWeights = reweight
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val (src, dst, wt, r) = EffectiveResistance.resistances(g, EffectiveResistance.MaxDenseN)
    val m = src.length
    val target = keepCount(m, rho)

    // Leverage-ish score per edge; binary search c with Σ min(1, c·s) = K.
    val s = Array.tabulate(m)(i => math.max(wt(i) * r(i), 1e-12))
    def expected(c: Double): Double = { var t = 0.0; var i = 0; while (i < m) { t += math.min(1.0, c * s(i)); i += 1 }; t }
    var lo = 0.0; var hi = 1.0
    while (expected(hi) < target && hi < 1e18) hi *= 2
    var it = 0
    while (it < 80) { val mid = (lo + hi) / 2; if (expected(mid) < target) lo = mid else hi = mid; it += 1 }
    val c = hi

    val rng = new Random(seed)
    val ks = Array.newBuilder[Int]; val kd = Array.newBuilder[Int]; val kw = Array.newBuilder[Double]
    var i = 0
    while (i < m) {
      val p = math.min(1.0, c * s(i))
      if (rng.nextDouble() < p) {
        ks += src(i); kd += dst(i)
        kw += (if (reweight) wt(i) / p else wt(i))
      }
      i += 1
    }
    SparkGraph.fromCanonical(g.spark, s"${g.name}#$abbrev-$rho-$seed",
      ks.result(), kd.result(), kw.result(),
      directed = false, weighted = reweight || g.weighted, g.numVertices)
  }
}

object EffectiveResistance {

  /** Max vertices for the dense solve; our datasets stay well below this. */
  val MaxDenseN = 6000

  /** Cache of exact resistances keyed by graph content: (src, dst, w, R).
    * The dense solve is the expensive one-time cost the paper also
    * amortises ("we do not include the computation time of the effective
    * resistance because it is a one-time cost", §4.6).
    */
  private val cache = TrieMap.empty[SparkGraph.Fingerprint, (Array[Int], Array[Int], Array[Double], Array[Double])]

  def resistances(g: SparkGraph, maxN: Int): (Array[Int], Array[Int], Array[Double], Array[Double]) =
    cache.getOrElseUpdate(g.fingerprint, {
      require(!g.directed, "ER requires an undirected graph (symmetrize first)")
      val n = g.numVertices.toInt
      require(n <= maxN, s"dense ER solve capped at $maxN vertices (got $n)")
      val (src, dst, wt) = GraphOps.collectEdges(g)
      (src, dst, wt, exact(n, src, dst, wt, DriverPool.shared))
    })

  /** R_e of every edge of the undirected graph on n vertices given by
    * (src, dst, wt), from the Cholesky factor A = CCᵀ of
    * A = L + J/n + εI, ε = 1e-9·n: with W = C⁻¹, A⁻¹ = WᵀW and
    * R_uv = ‖W(e_u − e_v)‖² = Σ_i (W_iu − W_iv)². Each sum runs in
    * ascending i within one task, so R is bit-identical for any `pool` size.
    */
  def exact(n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double], pool: ForkJoinPool): Array[Double] = {
    require(n.toLong * n <= Int.MaxValue, s"dense ER solve needs n² ≤ 2³¹ − 1 (got n = $n)")
    // lower triangle of A, row-major; the strict upper triangle receives Wᵀ
    val a = new Array[Double](n * n)
    val jn = 1.0 / n
    var i = 0
    while (i < n) { java.util.Arrays.fill(a, i * n, i * n + i + 1, jn); a(i * n + i) += 1e-9 * n; i += 1 }
    i = 0
    while (i < src.length) {
      val (u, v, w) = (math.min(src(i), dst(i)), math.max(src(i), dst(i)), wt(i))
      a(u * n + u) += w; a(v * n + v) += w; a(v * n + u) -= w
      i += 1
    }
    TiledCholesky.factor(a, n, pool)
    val wDiag = TiledCholesky.invert(a, n, pool)
    // W(i, u) = a(u·n + i) for i > u, wDiag(u) for i = u, 0 for i < u
    val r = new Array[Double](src.length)
    val chunk = 256
    DriverPool.forEach(pool, (src.length + chunk - 1) / chunk) { c =>
      var e = c * chunk
      while (e < math.min(src.length, (c + 1) * chunk)) {
        val (u, v) = (math.min(src(e), dst(e)), math.max(src(e), dst(e)))
        if (u < v) {
          val (ru, rv) = (u * n, v * n)
          var s = wDiag(u) * wDiag(u)
          var k = u + 1
          while (k < v) { s += a(ru + k) * a(ru + k); k += 1 }
          val d = a(ru + v) - wDiag(v)
          s += d * d
          k = v + 1
          while (k < n) { val t = a(ru + k) - a(rv + k); s += t * t; k += 1 }
          r(e) = s
        }
        e += 1
      }
    }
    r
  }

  def clearCache(): Unit = cache.clear()
}
