package repro.metrics

import scala.util.hashing.MurmurHash3
import repro.SparkSpec
import repro.core.SparkGraph
import repro.graphs.GraphGen

/** Exact outputs of the traversal metrics on fixed inputs, compared with
  * `==`: betweenness, closeness, the stretch metrics, the approximate
  * diameter and component labels. A change to the BFS, Brandes or Dijkstra
  * loops must leave every bit of these unchanged. Arrays are pinned by a
  * digest of their bit patterns plus their sum.
  *
  * The inputs are sorted generator pairs turned into driver arrays, so they
  * do not depend on the Spark core count:
  *   - `und`: a Watts–Strogatz ring on 0..239, a preferential-attachment
  *     tree on 240..279 and 20 isolated vertices;
  *   - `wtd`: the same edges with weights in {1, 4/3, 5/3, 2, 7/3}, which
  *     are not exact in binary, so the sum order shows in the last bits;
  *   - `dir`: a directed power-law graph plus some reciprocal arcs.
  * Each `…Sub` graph keeps three of every four edges of its input.
  */
class TraversalParitySpec extends SparkSpec {

  private val n = 300

  private def graph(name: String, edges: Seq[(Int, Int, Double)], directed: Boolean, weighted: Boolean) =
    SparkGraph.fromCanonical(name, edges.map(_._1).toArray, edges.map(_._2).toArray,
      edges.map(_._3).toArray, directed, weighted, n)

  private val undPairs: Seq[(Int, Int)] =
    (GraphGen.wattsStrogatz(240, 6, 0.3, 5) ++ GraphGen.barabasiAlbert(40, 1, 9, offset = 240)).toSeq.sorted
  private def weightOf(u: Int, v: Int): Double = 1.0 + ((7 * u + 3 * v) % 5) / 3.0
  private def sub[A](xs: Seq[A]): Seq[A] = xs.zipWithIndex.collect { case (x, i) if i % 4 != 0 => x }

  private lazy val und = graph("par-und", undPairs.map { case (u, v) => (u, v, 1.0) }, directed = false, weighted = false)
  private lazy val undSub = graph("par-und-sub", sub(undPairs).map { case (u, v) => (u, v, 1.0) },
    directed = false, weighted = false)
  private lazy val wtd = graph("par-wtd", undPairs.map { case (u, v) => (u, v, weightOf(u, v)) },
    directed = false, weighted = true)
  private lazy val wtdSub = graph("par-wtd-sub", sub(undPairs).map { case (u, v) => (u, v, weightOf(u, v)) },
    directed = false, weighted = true)
  private lazy val dir = {
    val arcs = GraphGen.directedPowerLaw(n, 3, 7)
    val all = (arcs ++ arcs.collect { case (u, v) if (u + v) % 5 == 0 => (v, u) }).toSeq.sorted
    graph("par-dir", all.map { case (u, v) => (u, v, 1.0) }, directed = true, weighted = false)
  }

  /** (digest of the bit patterns, sum) of an array. */
  private def pin(xs: Array[Double]): (Int, Double) =
    (MurmurHash3.arrayHash(xs.map(java.lang.Double.doubleToLongBits)), xs.sum)

  test("betweenness is pinned on an undirected and a directed input") {
    assert(pin(Centrality.betweenness(und)) === ((1005556016, 157136.0000000001)))
    assert(pin(Centrality.betweenness(dir)) === ((1382285790, 185801.99999999997)))
  }

  test("closeness is pinned on an unweighted and a weighted input") {
    assert(pin(Centrality.closeness(und)) === ((-1855927158, 0.626330609194302)))
    assert(pin(Centrality.closeness(wtd)) === ((-719467858, 0.37397636733693507)))
  }

  test("SPSP stretch is pinned on an unweighted and a weighted input") {
    assert(Distances.spspStretch(und, undSub, nPairs = 600, seed = 3) ===
      Distances.StretchResult(1.2149774774774778, 0.010033444816053512, 598))
    assert(Distances.spspStretch(wtd, wtdSub, nPairs = 600, seed = 3) ===
      Distances.StretchResult(1.2558234000288195, 0.010033444816053512, 598))
  }

  test("eccentricity stretch is pinned on an unweighted and a weighted input") {
    assert(Distances.eccentricityStretch(und, undSub, nSources = 120, seed = 4) ===
      Distances.StretchResult(1.2233630952380967, 0.06666666666666667, 120))
    assert(Distances.eccentricityStretch(wtd, wtdSub, nSources = 120, seed = 4) ===
      Distances.StretchResult(1.2028194263412004, 0.06666666666666667, 120))
  }

  test("approximate diameter is pinned on an unweighted and a weighted input") {
    assert(Distances.approxDiameter(undSub, nSeeds = 10, seed = 5) === 8.1)
    assert(Distances.approxDiameter(wtdSub, nSeeds = 10, seed = 5) === 13.033333333333335)
  }

  test("component labels are pinned") {
    val comp = Csr.fromGraph(undSub).components()
    assert((MurmurHash3.arrayHash(comp), comp.sum) === ((1154048821, 569)))
  }
}
