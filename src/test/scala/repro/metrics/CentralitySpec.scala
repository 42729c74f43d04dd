package repro.metrics

import repro.SparkSpec
import repro.core.GraphOps

class CentralitySpec extends SparkSpec {

  private lazy val path4 = GraphOps.fromPairs(spark, "bc-p4",
    Seq((0, 1), (1, 2), (2, 3)), directed = false, 4)
  private lazy val star  = GraphOps.fromPairs(spark, "bc-star",
    (1 to 5).map(i => (0, i)), directed = false, 6)

  // ---- betweenness (exact Brandes) ----
  test("betweenness of a path graph: interior vertices dominate") {
    val bc = Centrality.betweenness(path4)
    // v1 lies on shortest paths {0-2,0-3}; v2 on {0-3,1-3}; counted per direction
    assert(bc(0) === 0.0 && bc(3) === 0.0)
    assert(math.abs(bc(1) - 4.0) < 1e-9)
    assert(math.abs(bc(2) - 4.0) < 1e-9)
  }

  test("betweenness of a star: hub carries all pairs") {
    val bc = Centrality.betweenness(star)
    assert(math.abs(bc(0) - 20.0) < 1e-9) // 5·4 ordered leaf pairs
    (1 to 5).foreach(i => assert(bc(i) === 0.0))
  }

  test("betweenness of a directed graph counts each reciprocal pair as one edge") {
    // symmetrized: the 4-cycle 0-1-3-2-0, where every vertex carries 1
    val g = GraphOps.fromPairs(spark, "bc-recip",
      Seq((0, 1), (1, 0), (1, 3), (0, 2), (2, 3)), directed = true, 4)
    Centrality.betweenness(g).foreach(v => assert(math.abs(v - 1.0) < 1e-9))
  }

  test("betweenness splits equally across parallel shortest paths") {
    val c4 = GraphOps.fromPairs(spark, "bc-c4",
      Seq((0, 1), (1, 2), (2, 3), (3, 0)), directed = false, 4)
    val bc = Centrality.betweenness(c4)
    // each vertex sits on half of the 2 shortest paths of its opposite pair
    bc.foreach(v => assert(math.abs(v - 1.0) < 1e-9))
  }

  test("betweenness equals the two-pass Brandes bit for bit (30 random graphs)") {
    val rng = new scala.util.Random(21)
    (0 until 30).foreach { it =>
      val n = 10 + rng.nextInt(60)
      // sparse enough at times to leave several components and isolated vertices
      val edges = (0, 1) +: Seq.fill(rng.nextInt(2 * n))((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      val g = GraphOps.fromPairs(spark, s"bc-fused-$it", edges, directed = it % 3 == 1, n)
      assert(Centrality.betweenness(g).toSeq === QueueBfs.betweenness(Csr.undirected(g)).toSeq, s"graph $it")
    }
  }

  // ---- closeness ----
  test("closeness of a star: hub highest") {
    val cc = Centrality.closeness(star)
    assert(math.abs(cc(0) - 1.0 / 5.0) < 1e-12)
    (1 to 5).foreach(i => assert(math.abs(cc(i) - 1.0 / 9.0) < 1e-12))
  }

  test("closeness of isolated vertices is 0") {
    val g = GraphOps.fromPairs(spark, "cc-iso", Seq((0, 1)), directed = false, 3)
    assert(Centrality.closeness(g)(2) === 0.0)
  }

  // ---- eigenvector ----
  test("eigenvector centrality of a star peaks at the hub") {
    val ev = Centrality.eigenvector(star)
    (1 to 5).foreach(i => assert(ev(0) > ev(i)))
  }

  test("eigenvector centrality is symmetric on vertex-transitive graphs") {
    val c5 = GraphOps.fromPairs(spark, "ev-c5",
      (0 until 5).map(i => (i, (i + 1) % 5)), directed = false, 5)
    val ev = Centrality.eigenvector(c5)
    ev.foreach(v => assert(math.abs(v - ev(0)) < 1e-9))
  }

  test("directed eigenvector uses the left eigenvector (flows with arcs)") {
    // 0 -> 1 -> 2, scores accumulate downstream
    val g = GraphOps.fromPairs(spark, "ev-dir", Seq((0, 1), (1, 2), (2, 0), (0, 2)), directed = true, 3)
    val ev = Centrality.eigenvector(g)
    assert(ev(2) > ev(1)) // 2 receives from both 1 and 0
  }

  // ---- Katz ----
  test("katz centrality is higher for better-connected vertices") {
    val kz = Centrality.katz(star)
    (1 to 5).foreach(i => assert(kz(0) > kz(i)))
  }

  test("katz converges and is positive on connected graphs") {
    val g = repro.graphs.Datasets.get(spark, "ego-Facebook", 0.1)
    val kz = Centrality.katz(g)
    assert(kz.forall(v => v > 0 && v.isFinite))
  }

  // ---- topK precision ----
  test("topKPrecision of identical score vectors is 1") {
    val s = Array(5.0, 3.0, 8.0, 1.0, 9.0)
    assert(Centrality.topKPrecision(s, s, k = 3) === 1.0)
  }

  test("topKPrecision of disjoint rankings is 0") {
    val a = Array(9.0, 8.0, 0.0, 0.0)
    val b = Array(0.0, 0.0, 8.0, 9.0)
    assert(Centrality.topKPrecision(a, b, k = 2) === 0.0)
  }

  test("topKPrecision counts partial overlap") {
    val a = Array(9.0, 8.0, 7.0, 0.0)
    val b = Array(9.0, 0.0, 7.0, 8.0)
    assert(math.abs(Centrality.topKPrecision(a, b, k = 2) - 0.5) < 1e-12)
  }

  test("topKPrecision clamps k to the vertex count") {
    val s = Array(1.0, 2.0)
    assert(Centrality.topKPrecision(s, s, k = 100) === 1.0)
  }

  // ---- driver PageRank ----
  test("driver pagerank sums to 1 and favours the star hub") {
    val pr = Centrality.pagerank(star)
    assert(math.abs(pr.sum - 1.0) < 1e-9)
    (1 to 5).foreach(i => assert(pr(0) > pr(i)))
  }

  test("driver pagerank handles dangling vertices (directed path)") {
    val g = GraphOps.fromPairs(spark, "pr-dp", Seq((0, 1), (1, 2)), directed = true, 3)
    val pr = Centrality.pagerank(g)
    assert(math.abs(pr.sum - 1.0) < 1e-9)
    assert(pr(2) > pr(1) && pr(1) > pr(0))
  }
}
