package repro.metrics

import scala.collection.mutable

/** Test oracle for the weighted rows of `Csr.ShortestPaths`: one Dijkstra
  * per call that fills its row with Infinity and runs a fresh boxed heap,
  * as the rows were computed before they shared `Csr.Dijkstra`.
  */
object RowDijkstra {

  /** Weighted distances from `s` into `dist(off until off + c.n)`; Infinity = unreachable. */
  def run(c: Csr, s: Int, dist: Array[Double], off: Int): Unit = {
    java.util.Arrays.fill(dist, off, off + c.n, Double.PositiveInfinity)
    dist(off + s) = 0.0
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
    pq.enqueue((0.0, s))
    while (pq.nonEmpty) {
      val (d, u) = pq.dequeue()
      if (d <= dist(off + u) + 1e-12) {
        c.foreachNbr(u) { (v, w) =>
          if (d + w < dist(off + v)) { dist(off + v) = d + w; pq.enqueue((d + w, v)) }
        }
      }
    }
  }

  /** The row's largest finite distance, as `ShortestPaths.ecc` reads it. */
  def ecc(dist: Array[Double], off: Int, n: Int): Double = {
    var e = 0.0; var v = 0
    while (v < n) { val d = dist(off + v); if (d.isFinite && d > e) e = d; v += 1 }
    e
  }
}
