package repro.core.sparsifiers

import java.util.concurrent.ForkJoinPool
import repro.core.DriverPool

/** Test oracle for [[EffectiveResistance.exact]]: the dense solve it
  * replaced. It factors all of A = L + J/n + εI, ε = 1e-9·n, as A = CCᵀ
  * with `TiledCholesky`, inverts C in place and sums
  * R_uv = Σ_i (W_iu − W_iv)², W = C⁻¹. n³/3 flops and n² doubles, so keep
  * n to about 1500.
  */
object DenseResistance {

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
}
