package repro.core.sparsifiers

import java.util.concurrent.ForkJoinPool
import repro.core.DriverPool

/** Dense Cholesky A = CCᵀ of an SPD matrix, and the inverse W = C⁻¹, both in
  * place in one row-major n×n `Array[Double]` (entry (i, j) at `i·n + j`).
  *
  * Work is split into `Tile`×`Tile` tiles. The factorization is right-looking:
  * for each tile column k it factors the diagonal tile, solves the tiles
  * below it, then updates the trailing tiles; the last two steps run their
  * tiles in parallel. The inverse runs one task per panel of `Tile` columns
  * of W. Every entry is computed by one task, in an order fixed by its
  * position alone, so the results are bit-identical for any pool size.
  */
private[sparsifiers] object TiledCholesky {

  val Tile = 64

  private def tiles(n: Int): Int = (n + Tile - 1) / Tile
  private def size(n: Int, t: Int): Int = math.min(Tile, n - t * Tile)

  /** Overwrites the lower triangle of `a` (diagonal included) with C. Reads
    * only the lower triangle of A; the strict upper triangle is scratch.
    */
  def factor(a: Array[Double], n: Int, pool: ForkJoinPool): Unit = {
    val nt = tiles(n)
    var k = 0
    while (k < nt) {
      val ok = k * Tile; val bk = size(n, k)
      factorDiagonal(a, n, ok, bk)
      val below = nt - k - 1
      DriverPool.forEach(pool, below) { t =>
        solveRight(a, n, (k + 1 + t) * Tile * n + ok, size(n, k + 1 + t), ok, bk)
      }
      // trailing tiles (i, j), k < j ≤ i
      DriverPool.forEach(pool, below * below) { t =>
        val (i, j) = (k + 1 + t / below, k + 1 + t % below)
        if (j <= i)
          subMulT(a, i * Tile * n + j * Tile, n, size(n, i), size(n, j),
            a, i * Tile * n + ok, n, a, j * Tile * n + ok, n, bk)
      }
      k += 1
    }
  }

  /** Given C from `factor`, writes W = C⁻¹ (lower triangular) into `a`
    * transposed: W(i, u) for i > u at `a(u·n + i)`, the strict upper
    * triangle. Returns the diagonal W(u, u) = 1/C(u, u); C is left intact.
    */
  def invert(a: Array[Double], n: Int, pool: ForkJoinPool): Array[Double] = {
    val nt = tiles(n)
    val diag = new Array[Double](n)
    DriverPool.forEach(pool, nt) { k =>
      val ok = k * Tile; val bk = size(n, k)
      // W's diagonal tile k, transposed, in a full bk×bk buffer: t(r, q) = W(ok+q, ok+r),
      // zero for q < r, solved by forward substitution down each column of W
      val t = new Array[Double](bk * bk)
      var r = 0
      while (r < bk) {
        t(r * bk + r) = 1.0 / a((ok + r) * n + ok + r)
        var q = r + 1
        while (q < bk) {
          val cq = (ok + q) * n + ok
          var s = 0.0; var p = r
          while (p < q) { s += t(r * bk + p) * a(cq + p); p += 1 }
          t(r * bk + q) = -s / a(cq + q)
          q += 1
        }
        diag(ok + r) = t(r * bk + r)
        q = r + 1
        while (q < bk) { a((ok + r) * n + ok + q) = t(r * bk + q); q += 1 }
        r += 1
      }
      // tiles i > k of the panel: X(r, q) = W(oi+q, ok+r) at a((ok+r)·n + oi+q)
      var i = k + 1
      while (i < nt) {
        val oi = i * Tile; val bi = size(n, i)
        val x = ok * n + oi
        r = 0
        while (r < bk) { java.util.Arrays.fill(a, x + r * n, x + r * n + bi, 0.0); r += 1 }
        subMulT(a, x, n, bk, bi, t, 0, bk, a, oi * n + ok, n, bk)
        var j = k + 1
        while (j < i) {
          val oj = j * Tile
          subMulT(a, x, n, bk, bi, a, ok * n + oj, n, a, oi * n + oj, n, size(n, j))
          j += 1
        }
        // X ← X C(i, i)⁻ᵀ
        solveRight(a, n, x, bk, oi, bi)
        i += 1
      }
    }
    diag
  }

  /** Unblocked Cholesky of the diagonal tile at (o, o), size b. */
  private def factorDiagonal(a: Array[Double], n: Int, o: Int, b: Int): Unit = {
    var j = 0
    while (j < b) {
      val rj = (o + j) * n + o
      var d = a(rj + j); var p = 0
      while (p < j) { d -= a(rj + p) * a(rj + p); p += 1 }
      require(d > 0, s"matrix is not positive definite (pivot ${o + j}: $d)")
      val cjj = math.sqrt(d)
      a(rj + j) = cjj
      var i = j + 1
      while (i < b) {
        val ri = (o + i) * n + o
        var s = a(ri + j); p = 0
        while (p < j) { s -= a(ri + p) * a(rj + p); p += 1 }
        a(ri + j) = s / cjj
        i += 1
      }
      j += 1
    }
  }

  /** X ← X L⁻ᵀ for the rows×b block X at offset `x0` and the factored
    * diagonal tile L at (o, o), size b: row by row,
    * x(r, q) = (x(r, q) − Σ_{p<q} x(r, p)·L(q, p)) / L(q, q).
    */
  private def solveRight(a: Array[Double], n: Int, x0: Int, rows: Int, o: Int, b: Int): Unit = {
    var r = 0
    while (r < rows) {
      val xr = x0 + r * n
      var q = 0
      while (q < b) {
        val lq = (o + q) * n + o
        var s = a(xr + q); var p = 0
        while (p < q) { s -= a(xr + p) * a(lq + p); p += 1 }
        a(xr + q) = s / a(lq + q)
        q += 1
      }
      r += 1
    }
  }

  /** c(r, s) −= Σ_{p<depth} x(r, p)·y(s, p) for r < rows, s < cols; each
    * matrix is given by its array, offset of entry (0, 0), and row stride.
    * The sum is formed in ascending p and then subtracted, in 4×4 register
    * blocks where they fit and one entry at a time elsewhere — the same
    * arithmetic either way.
    */
  private def subMulT(c: Array[Double], co: Int, cs: Int, rows: Int, cols: Int,
                      x: Array[Double], xo: Int, xs: Int,
                      y: Array[Double], yo: Int, ys: Int, depth: Int): Unit = {
    def dot(xr: Int, ys0: Int): Double = {
      var s = 0.0; var p = 0
      while (p < depth) { s += x(xr + p) * y(ys0 + p); p += 1 }
      s
    }
    var r = 0
    while (r + 4 <= rows) {
      val x0 = xo + r * xs; val x1 = x0 + xs; val x2 = x1 + xs; val x3 = x2 + xs
      val c0 = co + r * cs; val c1 = c0 + cs; val c2 = c1 + cs; val c3 = c2 + cs
      var s = 0
      while (s + 4 <= cols) {
        val y0 = yo + s * ys; val y1 = y0 + ys; val y2 = y1 + ys; val y3 = y2 + ys
        var s00 = 0.0; var s01 = 0.0; var s02 = 0.0; var s03 = 0.0
        var s10 = 0.0; var s11 = 0.0; var s12 = 0.0; var s13 = 0.0
        var s20 = 0.0; var s21 = 0.0; var s22 = 0.0; var s23 = 0.0
        var s30 = 0.0; var s31 = 0.0; var s32 = 0.0; var s33 = 0.0
        var p = 0
        while (p < depth) {
          val a0 = x(x0 + p); val a1 = x(x1 + p); val a2 = x(x2 + p); val a3 = x(x3 + p)
          val b0 = y(y0 + p); val b1 = y(y1 + p); val b2 = y(y2 + p); val b3 = y(y3 + p)
          s00 += a0 * b0; s01 += a0 * b1; s02 += a0 * b2; s03 += a0 * b3
          s10 += a1 * b0; s11 += a1 * b1; s12 += a1 * b2; s13 += a1 * b3
          s20 += a2 * b0; s21 += a2 * b1; s22 += a2 * b2; s23 += a2 * b3
          s30 += a3 * b0; s31 += a3 * b1; s32 += a3 * b2; s33 += a3 * b3
          p += 1
        }
        c(c0 + s) -= s00; c(c0 + s + 1) -= s01; c(c0 + s + 2) -= s02; c(c0 + s + 3) -= s03
        c(c1 + s) -= s10; c(c1 + s + 1) -= s11; c(c1 + s + 2) -= s12; c(c1 + s + 3) -= s13
        c(c2 + s) -= s20; c(c2 + s + 1) -= s21; c(c2 + s + 2) -= s22; c(c2 + s + 3) -= s23
        c(c3 + s) -= s30; c(c3 + s + 1) -= s31; c(c3 + s + 2) -= s32; c(c3 + s + 3) -= s33
        s += 4
      }
      while (s < cols) {
        val ys0 = yo + s * ys
        c(c0 + s) -= dot(x0, ys0); c(c1 + s) -= dot(x1, ys0)
        c(c2 + s) -= dot(x2, ys0); c(c3 + s) -= dot(x3, ys0)
        s += 1
      }
      r += 4
    }
    while (r < rows) {
      var s = 0
      while (s < cols) { c(co + r * cs + s) -= dot(xo + r * xs, yo + s * ys); s += 1 }
      r += 1
    }
  }
}
