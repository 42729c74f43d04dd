package repro.core.sparsifiers

import java.util.concurrent.ForkJoinPool
import scala.util.Random
import repro.core.{DriverPool, GraphOps, OnceCache, PruneRateControl, SparkGraph, Sparsifier}
import repro.metrics.Csr

/** Effective Resistance spectral sparsifier (§2.3.9, Spielman–Srivastava).
  *
  * Resistances are exact: R_e = (e_u−e_v)ᵀ (L + εI)⁻¹ (e_u−e_v), ε = 1e-9·n
  * (see `EffectiveResistance.exact`). εI lifts the kernel of L, one
  * indicator vector per connected component, and leaves R within about ε/λ
  * relative of the pseudoinverse's value, λ the smallest nonzero eigenvalue
  * of L. The paper gets R from Laplacians.jl's approxchol, a randomized
  * sparse Cholesky (Kyng & Sachdeva, FOCS 2016). `exact` is its exact,
  * deterministic counterpart: it grounds one vertex per component,
  * eliminates the vertices of low degree sparsely, and factors only the
  * dense core that is left.
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
    SparkGraph.fromCanonical(s"${g.name}#$abbrev-$rho-$seed",
      ks.result(), kd.result(), kw.result(),
      directed = false, weighted = reweight || g.weighted, g.numVertices)
  }
}

object EffectiveResistance {

  /** Max tail vertices t for the dense part of the solve (see `exact`). */
  val MaxDenseN = 6000

  /** `resistances` runs a solve of fewer flops than this on the calling
    * thread: about 10 ms of work on one core, where waking the pool's
    * workers for each parallel step costs more than it saves.
    */
  private val CallingThreadFlops = 1L << 24

  /** Cache of exact resistances keyed by graph content: (src, dst, w, R)
    * and the solve's dense tail size t. The solve is the expensive one-time
    * cost the paper also amortises ("we do not include the computation time
    * of the effective resistance because it is a one-time cost", §4.6).
    */
  private val cache = new OnceCache[SparkGraph.Fingerprint, ((Array[Int], Array[Int], Array[Double], Array[Double]), Int)]

  /** The graph's edges and their resistances. Throws if the dense tail of
    * the solve has more than `maxN` vertices, on a cache hit too.
    */
  def resistances(g: SparkGraph, maxN: Int): (Array[Int], Array[Int], Array[Double], Array[Double]) = {
    val (edgesAndR, t) = cache.getOrCompute(g.fingerprint) {
      require(!g.directed, "ER requires an undirected graph (symmetrize first)")
      val (src, dst, wt) = GraphOps.collectEdges(g)
      val (r, t) = solve(g.numVertices.toInt, src, dst, wt, DriverPool.shared, maxN, CallingThreadFlops)
      ((src, dst, wt, r), t)
    }
    SparseElimination.requireTail(t, maxN)
    edgesAndR
  }

  /** R_uv = xᵀ(L + εI)⁻¹x, x = e_u − e_v, ε = 1e-9·n, for every edge of the
    * undirected graph on n vertices given by (src, dst, wt); 0 for a self
    * loop. As x ⟂ 1, R_uv also equals xᵀ(L + J/n + εI)⁻¹x.
    *
    *  1. Ground: take out of each connected component c one vertex g_c, the
    *     one of highest degree, ties to the lowest id. What is left,
    *     B = L_GG + εI, is SPD and well conditioned.
    *  2. Factor B by [[SparseElimination]]: vertices of low degree are
    *     eliminated sparsely, and only the dense Schur complement of the t
    *     vertices left goes through [[TiledCholesky]].
    *  3. Then (e_u − e_v)ᵀB⁻¹(e_u − e_v) from the entries of B⁻¹ on the
    *     factor's pattern, with e_g = 0 at a ground vertex.
    *  4. Add ε(f_u − f_v)²/(n_c − ε·Σ_{i∈c} f_i), f = B⁻¹1 and f_g = 0:
    *     the block inverse of L_c + εI with g_c as the last pivot gives this
    *     term exactly, so R is exact.
    *
    * Every parallel step runs on `pool`, and every sum in a fixed order
    * within one task, so R is bit-identical for any `pool` size.
    */
  def exact(n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double], pool: ForkJoinPool): Array[Double] =
    solve(n, src, dst, wt, pool, Int.MaxValue, 0)._1

  /** `exact` and the dense tail size t, but throws if t > `maxTail`, and
    * runs on the calling thread below `poolFlops`.
    */
  private def solve(n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double], pool: ForkJoinPool,
                    maxTail: Int, poolFlops: Long): (Array[Double], Int) = {
    val m = src.length
    val eps = 1e-9 * n
    val (comp, size, bIdx) = ground(n, src, dst)
    val diag = new Array[Double](bIdx.count(_ >= 0))
    java.util.Arrays.fill(diag, eps)
    val (eu, ev, off) = (new Array[Int](m), new Array[Int](m), new Array[Double](m))
    var inner = 0
    var e = 0
    while (e < m) {
      val a = bIdx(src(e)); val b = bIdx(dst(e))
      if (src(e) != dst(e)) {
        if (a >= 0) diag(a) += wt(e)
        if (b >= 0) diag(b) += wt(e)
        if (a >= 0 && b >= 0) { eu(inner) = a; ev(inner) = b; off(inner) = -wt(e); inner += 1 }
      }
      e += 1
    }
    val el = SparseElimination.factor(diag, eu, ev, off, inner, maxTail)
    val t = el.t.toLong
    val p = if (2 * t * t * t / 3 + m * t < poolFlops) DriverPool.callingThread else pool
    el.invert(p)
    val ones = new Array[Double](diag.length)
    java.util.Arrays.fill(ones, 1.0)
    val f = el.solve(ones, p)
    val fSum = new Array[Double](n)
    var v = 0
    while (v < n) { if (bIdx(v) >= 0) fSum(comp(v)) += f(bIdx(v)); v += 1 }

    val r = new Array[Double](m)
    val chunk = 256
    DriverPool.forEach(p, (m + chunk - 1) / chunk) { c =>
      var e = c * chunk
      while (e < math.min(m, (c + 1) * chunk)) {
        if (src(e) != dst(e)) {
          val a = bIdx(src(e)); val b = bIdx(dst(e))
          val form =
            if (a < 0) el.inverseDiagonal(b)
            else if (b < 0) el.inverseDiagonal(a)
            else el.differenceForm(a, b)
          val df = (if (a < 0) 0.0 else f(a)) - (if (b < 0) 0.0 else f(b))
          val c = comp(src(e))
          r(e) = form + eps * df * df / (size(c) - eps * fSum(c))
        }
        e += 1
      }
    }
    (r, el.t)
  }

  /** Each vertex's component label, each component's size, and each
    * vertex's index in B: −1 for the ground, the component's vertex of
    * highest degree (a self loop counts twice), ties to the lowest id; the
    * other vertices in ascending id.
    */
  private def ground(n: Int, src: Array[Int], dst: Array[Int]): (Array[Int], Array[Int], Array[Int]) = {
    val uf = new Csr.UnionFind(n)
    val degree = new Array[Int](n)
    var e = 0
    while (e < src.length) { uf.union(src(e), dst(e)); degree(src(e)) += 1; degree(dst(e)) += 1; e += 1 }
    val comp = uf.labels()
    val size = new Array[Int](n)
    val ground = Array.fill(n)(-1)
    var v = 0
    while (v < n) {
      val c = comp(v)
      size(c) += 1
      if (ground(c) < 0 || degree(v) > degree(ground(c))) ground(c) = v
      v += 1
    }
    val bIdx = new Array[Int](n)
    var next = 0
    v = 0
    while (v < n) { if (ground(comp(v)) == v) bIdx(v) = -1 else { bIdx(v) = next; next += 1 }; v += 1 }
    (comp, size, bIdx)
  }

  def clearCache(): Unit = cache.clear()
}
