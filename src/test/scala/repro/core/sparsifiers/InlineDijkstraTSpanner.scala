package repro.core.sparsifiers

import java.util.BitSet
import scala.collection.mutable
import repro.core.{GraphOps, SparkGraph}
import repro.metrics.Csr

/** Test oracle for [[TSpanner]]: the greedy spanner with its own bounded
  * Dijkstra, as it ran before it shared `Csr.Dijkstra`. Its search keeps its
  * own stamped `dist` and a fresh boxed heap per call, and reads u's spanner
  * arcs from the row prefix offsets(u) until hEnd(u).
  */
object InlineDijkstraTSpanner {

  def sparsify(g: SparkGraph, t: Int): SparkGraph = {
    val (src, dst, wt) = GraphOps.collectEdges(g)
    val c = Csr.fromGraph(g)
    val hNbr = new Array[Int](c.nbrs.length)
    val hWt = new Array[Double](c.nbrs.length)
    val hEnd = c.offsets.clone()
    def addArc(u: Int, v: Int, w: Double): Unit = { hNbr(hEnd(u)) = v; hWt(hEnd(u)) = w; hEnd(u) += 1 }
    val kept = new BitSet(src.length)
    val dist = new Array[Double](c.n)
    val stamp = new Array[Int](c.n)
    var curStamp = 0

    /** Bounded Dijkstra from s in the current spanner; true if d(s,v) ≤ cut. */
    def within(s: Int, v: Int, cut: Double): Boolean = {
      curStamp += 1
      val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
      dist(s) = 0.0; stamp(s) = curStamp; pq.enqueue((0.0, s))
      while (pq.nonEmpty) {
        val (d, u) = pq.dequeue()
        if (u == v) return true
        if (stamp(u) == curStamp && d <= dist(u) + 1e-12) {
          var a = c.offsets(u)
          while (a < hEnd(u)) {
            val x = hNbr(a)
            val nd = d + hWt(a)
            if (nd <= cut && (stamp(x) != curStamp || nd < dist(x))) {
              dist(x) = nd; stamp(x) = curStamp; pq.enqueue((nd, x))
            }
            a += 1
          }
        }
      }
      false
    }

    EdgeRanking.sortedEdges(wt, src, dst).foreach { e =>
      val (u, v, w) = (src(e), dst(e), wt(e))
      if (!within(u, v, t * w)) {
        kept.set(e)
        addArc(u, v, w); addArc(v, u, w)
      }
    }
    GraphOps.subgraph(g, kept.stream().toArray, s"SP$t")
  }
}
