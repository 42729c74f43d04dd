package repro.metrics

/** Test oracle for [[MaxFlow]]: Edmonds–Karp over its own linked arc lists.
  * Arcs 2i and 2i+1 are edge i's forward arc and its residual; a directed
  * edge's residual starts at capacity 0. Neighbours are scanned newest arc
  * first, so it finds other augmenting paths than the CSR network.
  */
final class FlowNetwork(n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double], directed: Boolean) {
  private val m = src.length
  private val head = new Array[Int](2 * m)
  private val capInit = new Array[Double](2 * m)
  private val next = new Array[Int](2 * m)
  private val first = Array.fill(n)(-1)
  private var cnt = 0

  private def addArc(u: Int, v: Int, c: Double): Unit = {
    head(cnt) = v; capInit(cnt) = c; next(cnt) = first(u); first(u) = cnt; cnt += 1
  }
  (0 until m).foreach { i =>
    addArc(src(i), dst(i), wt(i))
    addArc(dst(i), src(i), if (directed) 0.0 else wt(i))
  }

  /** Max flow from s to t (fresh residual capacities per call). */
  def maxFlow(s: Int, t: Int): Double = {
    if (s == t) return 0.0
    val cap = capInit.clone()
    val prevArc = new Array[Int](n)
    var flow = 0.0
    var found = true
    while (found) {
      java.util.Arrays.fill(prevArc, -1)
      prevArc(s) = -2
      val q = new java.util.ArrayDeque[Integer](); q.add(s)
      found = false
      while (!q.isEmpty && !found) {
        val u = q.poll().intValue()
        var a = first(u)
        while (a != -1 && !found) {
          val v = head(a)
          if (prevArc(v) == -1 && cap(a) > 1e-12) {
            prevArc(v) = a
            if (v == t) found = true else q.add(v)
          }
          a = next(a)
        }
      }
      if (found) {
        var bott = Double.MaxValue
        var v = t
        while (v != s) { val a = prevArc(v); bott = math.min(bott, cap(a)); v = head(a ^ 1) }
        v = t
        while (v != s) { val a = prevArc(v); cap(a) -= bott; cap(a ^ 1) += bott; v = head(a ^ 1) }
        flow += bott
      }
    }
    flow
  }
}
