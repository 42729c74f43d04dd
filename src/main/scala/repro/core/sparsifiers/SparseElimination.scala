package repro.core.sparsifiers

import java.util.concurrent.ForkJoinPool
import repro.core.DriverPool

/** Partial sparse LDLᵀ factorization of a symmetric positive definite n×n
  * matrix B, and the entries of B⁻¹ that the factor's pattern needs.
  *
  * Think of B as a graph on its indices, with an edge per off-diagonal
  * nonzero. An index whose current degree, in the partly eliminated matrix,
  * is at most `MaxDegree` is eliminated, one at a time in minimum degree
  * order with ties to the lowest index, until every index left has a higher
  * degree. The t indices left are the tail. With the k eliminated indices
  * first, in elimination order, and the tail last, in ascending index, B
  * permuted is
  *
  *   [L₁ 0; L₂ I] · diag(D, S) · [L₁ 0; L₂ I]ᵀ,   L₁ unit lower triangular,
  *
  * where S is the tail's dense Schur complement. Column j < k of [L₁; L₂]
  * holds at most `MaxDegree` entries, as positions and values sorted by
  * position.
  *
  * `invert` factors S = CCᵀ with [[TiledCholesky]] and turns C into
  * W = C⁻¹ in place. It then forms Z = B⁻¹ where the pattern needs it:
  * Z_ab = Σ_i W_ia·W_ib for the tail pairs a column's pattern meets, then
  * the Takahashi recurrence in reverse elimination order,
  * Z_{P,j} = −Z_PP·l_j and Z_jj = 1/D_j − l_jᵀZ_{P,j}, for column j with
  * pattern P and values l_j. For a < b in P, b is in the pattern of a, or
  * both are in the tail, so Z is known on every pair that an entry of B
  * joins.
  *
  * Elimination and the recurrence run in one thread; every other sum runs
  * in a fixed order within one task. So every result is bit-identical for
  * any pool size.
  */
private[sparsifiers] final class SparseElimination private (
    order: Array[Int],
    pos: Array[Int],
    k: Int,
    pivot: Array[Double],
    colStart: Array[Int],
    colPos: Array[Int],
    colVal: Array[Double],
    tail: Array[Double]) {

  /** The number of tail indices. */
  val t: Int = order.length - k

  // W(i, a) for i > a at tail(a·t + i), W(a, a) at wDiag(a); Z(a, b), a ≤ b,
  // at tail(b·t + a) for the pairs a pattern meets: positions k + a and k + b
  private var wDiag: Array[Double] = _
  private val zCol = new Array[Double](colPos.length)
  private val zDiag = new Array[Double](k)

  /** Factors and inverts the tail, then forms Z (see the class doc). */
  def invert(pool: ForkJoinPool): Unit = {
    TiledCholesky.factor(tail, t, pool)
    wDiag = TiledCholesky.invert(tail, t, pool)
    // the tail pairs that a column's pattern meets
    val need = new java.util.BitSet(t * t)
    var j = 0
    while (j < k) {
      var q0 = colStart(j + 1)
      while (q0 > colStart(j) && colPos(q0 - 1) >= k) q0 -= 1
      var q = q0
      while (q < colStart(j + 1)) {
        var r = q0
        while (r <= q) { need.set((colPos(q) - k) * t + colPos(r) - k); r += 1 }
        q += 1
      }
      j += 1
    }
    val pairs = need.stream().toArray
    val chunk = 256
    DriverPool.forEach(pool, (pairs.length + chunk - 1) / chunk) { c =>
      var x = c * chunk
      while (x < math.min(pairs.length, (c + 1) * chunk)) { tail(pairs(x)) = tailDot(pairs(x) % t, pairs(x) / t); x += 1 }
    }
    j = k - 1
    while (j >= 0) { invertColumn(j); j -= 1 }
  }

  /** Σ_{i ≥ b} W_ia·W_ib, a ≤ b. */
  private def tailDot(a: Int, b: Int): Double = {
    var z = wDiag(b) * (if (a == b) wDiag(b) else tail(a * t + b))
    var i = b + 1
    while (i < t) { z += tail(a * t + i) * tail(b * t + i); i += 1 }
    z
  }

  private def invertColumn(j: Int): Unit = {
    val c0 = colStart(j); val c1 = colStart(j + 1)
    var dot = 0.0
    var q = c0
    while (q < c1) {
      var zq = 0.0
      var r = c0
      while (r < c1) { zq -= z(colPos(q), colPos(r)) * colVal(r); r += 1 }
      zCol(q) = zq
      dot += colVal(q) * zq
      q += 1
    }
    zDiag(j) = 1.0 / pivot(j) - dot
  }

  /** Z between positions p and q, where it is known. */
  private def z(p: Int, q: Int): Double = {
    val lo = math.min(p, q); val hi = math.max(p, q)
    if (lo >= k) tail((hi - k) * t + lo - k)
    else if (lo == hi) zDiag(lo)
    else zCol(java.util.Arrays.binarySearch(colPos, colStart(lo), colStart(lo + 1), hi))
  }

  /** (B⁻¹)_ii, after `invert`. */
  def inverseDiagonal(i: Int): Double = if (pos(i) < k) zDiag(pos(i)) else tailDot(pos(i) - k, pos(i) - k)

  /** (e_i − e_j)ᵀB⁻¹(e_i − e_j) for an entry (i, j), i ≠ j, of B, after
    * `invert`. Between two tail indices it is Σ_r (W_ra − W_rb)², which
    * does not cancel the way Z_aa + Z_bb − 2Z_ab does.
    */
  def differenceForm(i: Int, j: Int): Double = {
    val p = pos(i); val q = pos(j)
    if (p < k || q < k) z(p, p) + z(q, q) - 2 * z(p, q)
    else {
      val a = math.min(p, q) - k; val b = math.max(p, q) - k
      val ra = a * t; val rb = b * t
      var x = wDiag(a) * wDiag(a)
      var r = a + 1
      while (r < b) { x += tail(ra + r) * tail(ra + r); r += 1 }
      val d = tail(ra + b) - wDiag(b)
      x += d * d
      r = b + 1
      while (r < t) { val w = tail(ra + r) - tail(rb + r); x += w * w; r += 1 }
      x
    }
  }

  /** B⁻¹y, after `invert`: forward through the columns, then D⁻¹ and
    * S⁻¹ = WᵀW, then backward.
    */
  def solve(y: Array[Double], pool: ForkJoinPool): Array[Double] = {
    val x = new Array[Double](order.length)
    var j = 0
    while (j < x.length) { x(j) = y(order(j)); j += 1 }
    j = 0
    while (j < k) {
      var q = colStart(j)
      while (q < colStart(j + 1)) { x(colPos(q)) -= colVal(q) * x(j); q += 1 }
      x(j) /= pivot(j)
      j += 1
    }
    // x_T ← Wᵀ(W x_T) by blocks of rows, each sum in ascending order
    val w = new Array[Double](t)
    val chunk = 256
    val blocks = (t + chunk - 1) / chunk
    DriverPool.forEach(pool, blocks) { c =>
      val (i0, i1) = ((blocks - 1 - c) * chunk, math.min(t, (blocks - c) * chunk))
      var a = 0
      while (a < i1) {
        val xa = x(k + a)
        var i = math.max(i0, a)
        if (i == a) { w(i) += wDiag(a) * xa; i += 1 }
        while (i < i1) { w(i) += tail(a * t + i) * xa; i += 1 }
        a += 1
      }
    }
    DriverPool.forEach(pool, blocks) { c =>
      var a = c * chunk
      while (a < math.min(t, (c + 1) * chunk)) {
        var s = wDiag(a) * w(a)
        var i = a + 1
        while (i < t) { s += tail(a * t + i) * w(i); i += 1 }
        x(k + a) = s
        a += 1
      }
    }
    j = k - 1
    while (j >= 0) {
      var s = x(j)
      var q = colStart(j)
      while (q < colStart(j + 1)) { s -= colVal(q) * x(colPos(q)); q += 1 }
      x(j) = s
      j -= 1
    }
    val out = new Array[Double](x.length)
    j = 0
    while (j < x.length) { out(j) = x(pos(j)); j += 1 }
    out
  }
}

private[sparsifiers] object SparseElimination {

  /** Indices of at most this degree are eliminated sparsely. */
  val MaxDegree = 32

  /** Throws if the dense tail of t vertices exceeds `maxTail`; the message names t. */
  def requireTail(t: Int, maxTail: Int): Unit =
    require(t <= maxTail, s"dense tail of the ER solve capped at $maxTail vertices (got t = $t)")

  /** Factors B with diagonal `diag` and entries B(u, v) = B(v, u) = `off(e)`
    * for e < `edges`, u = `eu(e)`, v = `ev(e)`, u ≠ v; repeated pairs add
    * up. Throws before allocating S if t exceeds `maxTail`; the message
    * names t.
    */
  def factor(diag: Array[Double], eu: Array[Int], ev: Array[Int], off: Array[Double], edges: Int,
             maxTail: Int): SparseElimination = {
    val state = new Elimination(diag.length, edges)
    state.load(diag, eu, ev, off)
    var j = state.next()
    while (j >= 0) { state.eliminate(j); j = state.next() }
    state.result(maxTail)
  }

  /** The partly eliminated matrix: diagonal, entries and adjacency of the
    * live indices, and the columns so far. Each step is a method, not a
    * constructor block, so that the JIT can compile its loops mid-run.
    */
  private final class Elimination(n: Int, edges: Int) {
    private val d = new Array[Double](n)
    private val entries = new PairMap(edges)
    private val adj = new Array[Array[Int]](n)
    private val adjLen = new Array[Int](n)
    // live neighbours; adj keeps eliminated ones until its owner goes
    private val deg = new Array[Int](n)
    // bucket(δ) holds the live indices of degree δ ≤ MaxDegree
    private val bucket = Array.fill(MaxDegree + 1)(new java.util.BitSet(n))

    private val order = new Array[Int](n)
    private val pos = new Array[Int](n)
    java.util.Arrays.fill(pos, -1)
    private val pivot = new Array[Double](n)
    private val colStart = new Array[Int](n + 1)
    private var colIdx = new Array[Int](math.max(16, 2 * edges))
    private var colVal = new Array[Double](colIdx.length)
    private var k = 0
    private val nb = new Array[Int](MaxDegree)
    private val b = new Array[Double](MaxDegree)
    private val was = new Array[Int](MaxDegree)

    def load(diag: Array[Double], eu: Array[Int], ev: Array[Int], off: Array[Double]): Unit = {
      System.arraycopy(diag, 0, d, 0, n)
      var e = 0
      while (e < edges) { adjLen(eu(e)) += 1; adjLen(ev(e)) += 1; e += 1 }
      var v = 0
      while (v < n) { adj(v) = new Array[Int](adjLen(v)); adjLen(v) = 0; v += 1 }
      e = 0
      while (e < edges) {
        if (entries.add(eu(e), ev(e), off(e))) { link(eu(e), ev(e)); link(ev(e), eu(e)) }
        e += 1
      }
      v = 0
      while (v < n) { deg(v) = adjLen(v); if (deg(v) <= MaxDegree) bucket(deg(v)).set(v); v += 1 }
    }

    private def link(a: Int, c: Int): Unit = {
      if (adjLen(a) == adj(a).length) adj(a) = java.util.Arrays.copyOf(adj(a), math.max(4, 2 * adjLen(a)))
      adj(a)(adjLen(a)) = c; adjLen(a) += 1
    }

    /** The live index of least degree ≤ MaxDegree, lowest first; −1 if none. */
    def next(): Int = {
      var j = -1; var dj = 0
      while (j < 0 && dj <= MaxDegree) { j = bucket(dj).nextSetBit(0); dj += 1 }
      j
    }

    /** Column j: l = b/D_j for j's live neighbours' entries b, and the
      * Schur update B_ac −= l_a·b_c of every pair of them, fill included.
      */
    def eliminate(j: Int): Unit = {
      bucket(deg(j)).clear(j)
      pos(j) = k; order(k) = j
      val pv = d(j); pivot(k) = pv
      var p = 0; var q = 0
      while (q < adjLen(j)) {
        val a = adj(j)(q)
        if (pos(a) < 0) { nb(p) = a; b(p) = entries.get(j, a); p += 1 }
        q += 1
      }
      adj(j) = null
      val c0 = colStart(k)
      if (c0 + p > colIdx.length) {
        colIdx = java.util.Arrays.copyOf(colIdx, 2 * colIdx.length + p)
        colVal = java.util.Arrays.copyOf(colVal, colIdx.length)
      }
      q = 0
      while (q < p) {
        val a = nb(q); val l = b(q) / pv
        colIdx(c0 + q) = a; colVal(c0 + q) = l
        d(a) -= l * b(q)
        was(q) = deg(a); deg(a) -= 1
        var r = 0
        while (r < q) {
          val c = nb(r)
          if (entries.add(a, c, -l * b(r))) { link(a, c); link(c, a); deg(a) += 1; deg(c) += 1 }
          r += 1
        }
        q += 1
      }
      q = 0
      while (q < p) {
        val a = nb(q)
        if (was(q) != deg(a)) {
          if (was(q) <= MaxDegree) bucket(was(q)).clear(a)
          if (deg(a) <= MaxDegree) bucket(deg(a)).set(a)
        }
        q += 1
      }
      colStart(k + 1) = c0 + p
      k += 1
    }

    /** Positions for the tail, columns as sorted positions, and S. */
    def result(maxTail: Int): SparseElimination = {
      val t = n - k
      requireTail(t, maxTail)
      require(t.toLong * t <= Int.MaxValue, s"dense tail needs t² ≤ 2³¹ − 1 (got t = $t)")
      var v = 0
      var i = k
      while (v < n) { if (pos(v) < 0) { pos(v) = i; order(i) = v; i += 1 }; v += 1 }
      // insertion sort, at most MaxDegree entries a column
      var j = 0
      while (j < k) {
        var q = colStart(j)
        while (q < colStart(j + 1)) {
          val p = pos(colIdx(q)); val l = colVal(q)
          var r = q
          while (r > colStart(j) && colIdx(r - 1) > p) { colIdx(r) = colIdx(r - 1); colVal(r) = colVal(r - 1); r -= 1 }
          colIdx(r) = p; colVal(r) = l
          q += 1
        }
        j += 1
      }
      val s = new Array[Double](t * t)
      i = 0
      while (i < t) { s(i * t + i) = d(order(k + i)); i += 1 }
      // the entries between two tail indices, each at (row, column) = (later, earlier)
      var x = 0
      while (x < entries.capacity) {
        val key = entries.keyAt(x)
        if (key >= 0) {
          val p = pos((key >>> 32).toInt) - k; val q = pos(key.toInt) - k
          if (p >= 0 && q >= 0) s(math.max(p, q) * t + math.min(p, q)) = entries.valueAt(x)
        }
        x += 1
      }
      new SparseElimination(order, pos, k, java.util.Arrays.copyOf(pivot, k), java.util.Arrays.copyOf(colStart, k + 1),
        java.util.Arrays.copyOf(colIdx, colStart(k)), java.util.Arrays.copyOf(colVal, colStart(k)), s)
    }
  }

  /** Open-addressing map from an unordered index pair to a matrix entry. */
  private final class PairMap(expected: Int) {
    private var keys = empty(Integer.highestOneBit(math.max(16, 2 * expected)) << 1)
    private var vals = new Array[Double](keys.length)
    private var size = 0

    private def empty(capacity: Int): Array[Long] = { val a = new Array[Long](capacity); java.util.Arrays.fill(a, -1L); a }

    private def key(a: Int, b: Int): Long = (math.min(a, b).toLong << 32) | math.max(a, b)

    private def slot(key: Long): Int = {
      val mask = keys.length - 1
      var i = ((key * 0x9E3779B97F4A7C15L) >>> 32).toInt & mask
      while (keys(i) != key && keys(i) != -1L) i = (i + 1) & mask
      i
    }

    def get(a: Int, b: Int): Double = vals(slot(key(a, b)))

    /** Slot x holds the pair (key >>> 32, key & 0xFFFFFFFF) if its key is ≥ 0. */
    def capacity: Int = keys.length
    def keyAt(x: Int): Long = keys(x)
    def valueAt(x: Int): Double = vals(x)

    /** Adds `x` to the entry (a, b); true if the entry was new. */
    def add(a: Int, b: Int, x: Double): Boolean = {
      val kk = key(a, b)
      val i = slot(kk)
      if (keys(i) == kk) { vals(i) += x; false }
      else {
        keys(i) = kk; vals(i) = x; size += 1
        if (2 * size > keys.length) grow()
        true
      }
    }

    private def grow(): Unit = {
      val (ok, ov) = (keys, vals)
      keys = empty(2 * ok.length); vals = new Array[Double](keys.length)
      var i = 0
      while (i < ok.length) { if (ok(i) != -1L) { val s = slot(ok(i)); keys(s) = ok(i); vals(s) = ov(i) }; i += 1 }
    }
  }
}
