package repro.core.sparsifiers

import java.util.BitSet
import scala.collection.mutable
import scala.util.Random
import repro.core.{GraphOps, SparkGraph}
import repro.metrics.Csr

/** Test oracle for [[ForestFire]]: the boxed form it replaced, which draws
  * the same random numbers in the same order. Each burning vertex collects
  * its candidate `(neighbour, edge)` pairs in a buffer and takes a prefix of
  * `rng.shuffle` of them; each fire runs on a `mutable.Queue`; the edges
  * are ranked by a boxed `sortBy` on (−burns, draw).
  */
object BoxedForestFire {
  private val p = 0.7
  private val burnRounds = 3.0

  /** The kept edge indices, ascending, for `target` kept edges. */
  def kept(g: SparkGraph, target: Int, seed: Long): Array[Int] = {
    val adj = Csr.fromGraph(g, symmetric = false)
    val m = g.numEdges.toInt
    val rng = new Random(seed)
    val burns = new Array[Int](m)
    val nonIsolated = (0 until adj.n).filter(adj.degree(_) > 0).toArray
    if (nonIsolated.nonEmpty) {
      var totalBurns = 0L
      val targetBurns = (burnRounds * m).toLong
      val visited = new Array[Int](adj.n)
      java.util.Arrays.fill(visited, -1)
      var fireId = 0
      val maxFires = 50 * (m / math.max(1, nonIsolated.length) + 1) * nonIsolated.length
      while (totalBurns < targetBurns && fireId < maxFires) {
        val start = nonIsolated(rng.nextInt(nonIsolated.length))
        val queue = mutable.Queue(start)
        visited(start) = fireId
        var burned = 0
        while (queue.nonEmpty && burned < adj.n / 2) {
          val u = queue.dequeue()
          var toBurn = 0
          while (rng.nextDouble() < p) toBurn += 1
          if (toBurn > 0) {
            val cand = mutable.ArrayBuffer.empty[(Int, Int)]
            for (a <- adj.offsets(u) until adj.offsets(u + 1); v = adj.nbrs(a) if visited(v) != fireId)
              cand += ((v, adj.arcEdge(a)))
            rng.shuffle(cand.toSeq).take(toBurn).foreach { case (v, e) =>
              burns(e) += 1; totalBurns += 1; burned += 1
              visited(v) = fireId; queue.enqueue(v)
            }
          }
        }
        fireId += 1
      }
    }
    val order = (0 until m).map(e => (e, burns(e), rng.nextDouble()))
      .sortBy { case (_, b, r) => (-b, r) }
    val kept = new BitSet(m)
    order.take(target).foreach { case (e, _, _) => kept.set(e) }
    kept.stream().toArray
  }

  /** The graph [[ForestFire]] returned: the kept edges in edge order. */
  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph =
    GraphOps.subgraph(g, kept(g, math.max(1L, math.round((1.0 - rho) * g.numEdges)).toInt, seed), s"FF-$rho-$seed")
}
