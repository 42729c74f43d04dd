package repro.metrics

import scala.util.Random
import repro.core.{GraphOps, SparkGraph}

/** s-t max-flow / min-cut (§2.2.5) via Edmonds–Karp (BFS augmenting paths)
  * on the graph's both-directions CSR, where each edge has one arc in each
  * endpoint's row; the two arcs, matched through `arcEdge`, are each
  * other's residual. Edge weights are capacities (1 for unweighted graphs);
  * on a directed graph the arc stored at the edge's `dst` starts at 0.
  *
  * The paper samples 100 000 pairs on graphs ~100× larger and measures the
  * mean flow stretch between sparsified and original graphs (§3.3.4); we
  * sample proportionally fewer pairs.
  */
object MaxFlow {

  /** A flow network over `c`: `capInit(a)` is arc a's capacity and
    * `rev(a)` its residual arc.
    */
  final class Network private[MaxFlow] (c: Csr, capInit: Array[Double], rev: Array[Int]) {

    /** Max flow from s to t (fresh residual capacities per call). */
    def maxFlow(s: Int, t: Int): Double = {
      if (s == t) return 0.0
      val cap = capInit.clone()
      val prevArc = Array.fill(c.n)(-1)
      val queue = new Array[Int](c.n) // doubles as the visit order to reset
      var reached = 0
      var flow = 0.0
      var found = true
      while (found) {
        var i = 0
        while (i < reached) { prevArc(queue(i)) = -1; i += 1 }
        prevArc(s) = -2; queue(0) = s
        var head = 0; var tail = 1
        found = false
        while (head < tail && !found) {
          val u = queue(head); head += 1
          var a = c.offsets(u)
          val end = c.offsets(u + 1)
          while (a < end && !found) {
            val v = c.nbrs(a)
            if (prevArc(v) == -1 && cap(a) > 1e-12) {
              prevArc(v) = a; queue(tail) = v; tail += 1
              found = v == t
            }
            a += 1
          }
        }
        reached = tail
        if (found) {
          // find bottleneck along the path, then augment
          var bott = Double.MaxValue
          var v = t
          while (v != s) { val a = prevArc(v); bott = math.min(bott, cap(a)); v = c.nbrs(rev(a)) }
          v = t
          while (v != s) { val a = prevArc(v); cap(a) -= bott; cap(rev(a)) += bott; v = c.nbrs(rev(a)) }
          flow += bott
        }
      }
      flow
    }
  }

  /** `g`'s flow network on its shared symmetric CSR. */
  def network(g: SparkGraph): Network = {
    val c = Csr.fromGraph(g, symmetric = true)
    val dst = GraphOps.collectEdges(g)._2
    val cap = new Array[Double](c.nbrs.length)
    val rev = new Array[Int](c.nbrs.length)
    val firstArc = Array.fill(dst.length)(-1)
    var a = 0
    while (a < c.nbrs.length) {
      val e = c.arcEdge(a)
      if (firstArc(e) < 0) firstArc(e) = a else { rev(a) = firstArc(e); rev(firstArc(e)) = a }
      cap(a) = if (!g.directed || c.nbrs(a) == dst(e)) c.wts(a) else 0.0
      a += 1
    }
    new Network(c, cap, rev)
  }

  final case class FlowStretch(meanStretch: Double, zeroFrac: Double, pairs: Int)

  /** Mean flow stretch flow_spar(s,t)/flow_orig(s,t) over same-component
    * pairs, sampled uniformly as in `Distances.spspStretch`, with positive
    * original flow; pairs whose sparsified flow drops to zero are
    * excluded from the mean and reported (Fig 12's unreachable constraint).
    */
  def flowStretch(orig: SparkGraph, spar: SparkGraph, nPairs: Int = 150, seed: Long = 0): FlowStretch = {
    val pairs = Csr.fromGraph(orig, symmetric = true).componentPairs
    if (pairs.isEmpty) return FlowStretch(Double.NaN, 1.0, 0)
    val no = network(orig)
    val ns = network(spar)
    val rng = new Random(seed)
    var sum = 0.0; var used = 0; var zero = 0
    var i = 0
    while (i < nPairs) {
      val cs = pairs.draw(rng)
      val s = cs(rng.nextInt(cs.size)); val t = cs(rng.nextInt(cs.size))
      if (s != t) {
        val fo = no.maxFlow(s, t)
        if (fo > 1e-12) {
          val fs = ns.maxFlow(s, t)
          if (fs > 1e-12) { sum += fs / fo; used += 1 } else zero += 1
        }
      }
      i += 1
    }
    FlowStretch(if (used > 0) sum / used else Double.NaN,
      if (used + zero > 0) zero.toDouble / (used + zero) else 1.0, used + zero)
  }
}
