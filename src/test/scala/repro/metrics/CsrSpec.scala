package repro.metrics

import repro.SparkSpec
import repro.core.GraphOps

class CsrSpec extends SparkSpec {

  private lazy val path5 = GraphOps.fromPairs(spark, "p5",
    Seq((0, 1), (1, 2), (2, 3), (3, 4)), directed = false, 5)
  private lazy val twoComp = GraphOps.fromPairs(spark, "2c",
    Seq((0, 1), (1, 2), (3, 4)), directed = false, 6) // vertex 5 isolated

  /** Unweighted distances from `s` through `ShortestPaths`, a batch of one. */
  private def hops(c: Csr, s: Int): Seq[Double] = {
    val d = new Csr.ShortestPaths(c, weighted = false).from(s)
    (0 until c.n).map(d(_))
  }

  private val inf = Double.PositiveInfinity

  test("bfs distances on a path") {
    val c = Csr.fromGraph(path5)
    assert(hops(c, 0) === Seq(0.0, 1.0, 2.0, 3.0, 4.0))
    assert(hops(c, 2) === Seq(2.0, 1.0, 0.0, 1.0, 2.0))
  }

  test("bfs marks unreachable as Infinity") {
    val d = hops(Csr.fromGraph(twoComp), 0)
    assert(d(3) === inf && d(4) === inf && d(5) === inf)
  }

  test("dijkstra respects weights") {
    val g = GraphOps.fromArrays(spark, "wpath", Array(0, 1, 0), Array(1, 2, 2),
      Array(1.0, 1.0, 5.0), directed = false, weighted = true, 3)
    val d = new Csr.ShortestPaths(Csr.fromGraph(g), weighted = true).from(0)
    assert(d(2) === 2.0) // via vertex 1, not the direct 5.0 edge
  }

  test("directed CSR only exposes out-edges") {
    val g = GraphOps.fromPairs(spark, "dpath", Seq((0, 1), (1, 2)), directed = true, 3)
    val c = Csr.fromGraph(g, symmetric = false)
    assert(hops(c, 0) === Seq(0.0, 1.0, 2.0))
    assert(hops(c, 2) === Seq(inf, inf, 0.0))
  }

  test("components labels partition the graph") {
    val comp = Csr.fromGraph(twoComp).components()
    assert(comp(0) === comp(1) && comp(1) === comp(2))
    assert(comp(3) === comp(4))
    assert(comp(0) != comp(3) && comp(3) != comp(5) && comp(0) != comp(5))
  }

  test("degree and maxDegree") {
    val c = Csr.fromGraph(path5)
    assert(c.degree(0) === 1 && c.degree(2) === 2)
    assert(c.maxDegree === 2)
  }

  test("distances dispatches on weighted flag") {
    val c = Csr.fromGraph(path5)
    for (weighted <- Seq(false, true)) {
      val d = new Csr.ShortestPaths(c, weighted).from(0)
      assert((0 until 5).map(d(_)) === Seq(0.0, 1.0, 2.0, 3.0, 4.0))
    }
  }
}
