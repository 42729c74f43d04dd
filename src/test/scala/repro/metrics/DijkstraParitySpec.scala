package repro.metrics

import scala.util.Random
import repro.SparkSpec
import repro.core.{GraphOps, SparkGraph}
import repro.core.sparsifiers.{InlineDijkstraTSpanner, TSpanner}

/** The two callers of `Csr.Dijkstra` against the searches they replaced:
  * the t-Spanner keeps the edges of its inline-Dijkstra oracle, in the same
  * order, and the weighted rows and eccentricities of `ShortestPaths` have
  * the bits of a fresh one-row Dijkstra per source. The random graphs have
  * several components, an isolated tail and weights with many ties, some of
  * them not exact in binary.
  */
class DijkstraParitySpec extends SparkSpec {

  /** Sorted canonical edges (u < v) on 0 until n in 1–4 blocks, the last
    * vertices isolated; weights by `mode`: 0 unit, 1 small integers, 2 tenths.
    */
  private def randomEdges(rng: Random, n: Int, mode: Int): Seq[(Int, Int, Double)] = {
    val blocks = 1 + rng.nextInt(4)
    val used = n - rng.nextInt(n / 4 + 1)
    val size = math.max(2, used / blocks)
    Seq.fill(2 * n) {
      val b = rng.nextInt(blocks) * size
      (b + rng.nextInt(size), b + rng.nextInt(size))
    }.collect { case (u, v) if u != v && u < used && v < used => (math.min(u, v), math.max(u, v)) }
      .distinct.sorted
      .map { case (u, v) => (u, v, mode match { case 0 => 1.0; case 1 => 1.0 + rng.nextInt(3); case _ => 0.1 * (1 + rng.nextInt(12)) }) }
  }

  private def edges(g: SparkGraph): Seq[(Int, Int, Double)] = {
    val (s, d, w) = GraphOps.collectEdges(g)
    s.indices.map(i => (s(i), d(i), w(i)))
  }

  test("t-Spanner keeps the inline-Dijkstra oracle's edges in its order (48 graphs, t = 1, 2, 3, 5)") {
    val rng = new Random(21)
    for (inst <- 0 until 48) {
      val n = 6 + rng.nextInt(70)
      val es = randomEdges(rng, n, inst % 3)
      val g = SparkGraph.fromCanonical(s"sp-$inst", es.map(_._1).toArray, es.map(_._2).toArray,
        es.map(_._3).toArray, directed = false, weighted = inst % 3 != 0, n)
      for (t <- Seq(1, 2, 3, 5))
        assert(edges(new TSpanner(t)(g, 0.5, 0)) === edges(InlineDijkstraTSpanner.sparsify(g, t)), s"graph $inst t=$t")
    }
  }

  test("weighted ShortestPaths rows and eccentricities have the one-row Dijkstra's bits (1, 63, 64, 65 sources)") {
    val rng = new Random(22)
    for (inst <- 0 until 12; total <- Seq(1, 63, 64, 65)) {
      val n = 20 + rng.nextInt(120)
      val es = randomEdges(rng, n, 1 + inst % 2)
      val c = Csr.fromArrays(n, es.map(_._1).toArray, es.map(_._2).toArray, es.map(_._3).toArray,
        bothDirections = inst % 3 != 0)
      val sources = Array.fill(total)(rng.nextInt(n))
      val paths = new Csr.ShortestPaths(c, weighted = true)
      val row = new Array[Double](n)
      SequentialTraversals.batches(total) { (b, count) =>
        paths.from(sources, b, count)
        for (k <- 0 until count) {
          RowDijkstra.run(c, sources(b + k), row, 0)
          val bits = (0 until n).map(v => java.lang.Double.doubleToRawLongBits(paths(k, v)))
          assert(bits === row.toSeq.map(java.lang.Double.doubleToRawLongBits), s"graph $inst, source ${b + k}")
          assert(java.lang.Double.doubleToRawLongBits(paths.ecc(k)) ===
            java.lang.Double.doubleToRawLongBits(RowDijkstra.ecc(row, 0, n)))
        }
      }
    }
  }
}
