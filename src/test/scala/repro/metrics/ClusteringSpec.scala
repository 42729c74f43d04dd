package repro.metrics

import scala.util.Random
import repro.{Oracle, SparkSpec}
import repro.core.GraphOps
import repro.graphs.Datasets

class ClusteringSpec extends SparkSpec {

  private lazy val k4 = GraphOps.fromPairs(spark, "cl-k4",
    Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), directed = false, 4)
  private lazy val c5 = GraphOps.fromPairs(spark, "cl-c5",
    (0 until 5).map(i => (i, (i + 1) % 5)), directed = false, 5)

  // ---- triangles ----
  test("K4 has four triangles") {
    assert(ClusteringCoeffs.triangleCount(k4) === 4)
  }

  test("a cycle has no triangles") {
    assert(ClusteringCoeffs.triangleCount(c5) === 0)
  }

  test("triangles per vertex on K4: each vertex in 3") {
    assert(ClusteringCoeffs.trianglesPerVertex(k4).toSeq === Seq(3L, 3L, 3L, 3L))
  }

  test("triangle count matches DuckDB oracle") {
    import spark.implicits._
    val g = Datasets.get(spark, "ca-HepPh", 0.08)
    val sparkTri = Seq(ClusteringCoeffs.triangleCount(g)).toDF("tri")
    Oracle.assertEquivalent(
      sparkTri,
      """SELECT COUNT(*) AS tri FROM edges ab
        |JOIN edges bc ON ab.dst = bc.src
        |JOIN edges ac ON ac.src = ab.src AND ac.dst = bc.dst""".stripMargin,
      "edges" -> edgesDf(g))
  }

  // ---- clustering coefficients ----
  test("MCC of a complete graph is 1") {
    assert(math.abs(ClusteringCoeffs.mcc(k4) - 1.0) < 1e-12)
  }

  test("MCC of a triangle-free graph is 0") {
    assert(ClusteringCoeffs.mcc(c5) === 0.0)
  }

  test("GCC of a complete graph is 1") {
    assert(math.abs(ClusteringCoeffs.gcc(k4) - 1.0) < 1e-12)
  }

  test("GCC of a star is 0") {
    val star = GraphOps.fromPairs(spark, "cl-star", (1 to 4).map(i => (0, i)), directed = false, 5)
    assert(ClusteringCoeffs.gcc(star) === 0.0)
  }

  test("GCC of the paw graph (triangle + pendant)") {
    // triangle {0,1,2} + edge (2,3): 3 closed triplets, wedges = 1+1+3+0 = 5
    val paw = GraphOps.fromPairs(spark, "cl-paw", Seq((0, 1), (1, 2), (0, 2), (2, 3)), directed = false, 4)
    assert(math.abs(ClusteringCoeffs.gcc(paw) - 3.0 / 5.0) < 1e-12)
  }

  test("MCC treats low-degree vertices as 0 but averages over all vertices") {
    // paw graph: LCC(0)=LCC(1)=1, LCC(2)=1/3, LCC(3)=0 → MCC=(1+1+1/3+0)/4
    val paw = GraphOps.fromPairs(spark, "cl-paw2", Seq((0, 1), (1, 2), (0, 2), (2, 3)), directed = false, 4)
    assert(math.abs(ClusteringCoeffs.mcc(paw) - (2.0 + 1.0 / 3.0) / 4.0) < 1e-12)
  }

  test("a directed graph is scored as its symmetrization (reciprocal arcs merged)") {
    // symmetrized, these arcs are the paw graph above
    val g = GraphOps.fromPairs(spark, "cl-paw-dir",
      Seq((0, 1), (1, 0), (1, 2), (2, 0), (2, 3)), directed = true, 4)
    assert(ClusteringCoeffs.trianglesPerVertex(g).toSeq === Seq(1L, 1L, 1L, 0L))
    assert(math.abs(ClusteringCoeffs.gcc(g) - 3.0 / 5.0) < 1e-12)
    assert(math.abs(ClusteringCoeffs.mcc(g) - (2.0 + 1.0 / 3.0) / 4.0) < 1e-12)
  }

  // ---- Louvain ----
  test("Louvain separates two cliques joined by one edge") {
    val cliqueA = for (i <- 0 until 6; j <- i + 1 until 6) yield (i, j)
    val cliqueB = for (i <- 6 until 12; j <- i + 1 until 12) yield (i, j)
    val g = GraphOps.fromPairs(spark, "lv-2cl", cliqueA ++ cliqueB :+ ((0, 6)), directed = false, 12)
    val labels = Louvain.cluster(g, seed = 1)
    assert(Louvain.numCommunities(labels) === 2)
    assert((0 until 6).map(labels(_)).distinct.size === 1)
    assert((6 until 12).map(labels(_)).distinct.size === 1)
    assert(labels(0) !== labels(6))
  }

  test("Louvain gives isolated vertices singleton communities") {
    val g = GraphOps.fromPairs(spark, "lv-iso", Seq((0, 1), (0, 2), (1, 2)), directed = false, 5)
    val labels = Louvain.cluster(g, seed = 1)
    assert(Louvain.numCommunities(labels) === 3) // triangle + 2 singletons
  }

  test("Louvain breaks a tie between two moves toward the smaller community id") {
    // vertex 8 hangs off two 4-cliques by one edge each. Visited first (the
    // visit order is rng.shuffle(0 until n)), it gains the same by joining
    // vertex 0's singleton community or vertex 4's, and takes 0's
    val cliques = for (b <- Seq(0, 4); i <- b until b + 4; j <- i + 1 until b + 4) yield (i, j)
    val g = GraphOps.fromPairs(spark, "lv-tie", cliques ++ Seq((0, 8), (4, 8)), directed = false, 9)
    val seeds = Iterator.from(0).filter(s => new Random(s).shuffle((0 until 9).toList).head == 8).take(3)
    seeds.foreach { seed =>
      val labels = Louvain.cluster(g, seed)
      assert(Louvain.numCommunities(labels) === 2, s"seed $seed")
      assert(labels(8) == labels(0) && labels(8) != labels(4), s"seed $seed")
    }
  }

  test("Louvain recovers planted SBM communities approximately") {
    val g = Datasets.get(spark, "Reddit", 0.2)
    val labels = Louvain.cluster(g, seed = 1)
    val k = Louvain.numCommunities(labels)
    assert(k >= 4 && k <= 30, s"expected ≈8 communities, got $k")
  }

  test("community count grows as the graph is pruned (paper Fig 8)") {
    val g = Datasets.get(spark, "com-DBLP", 0.15)
    val k0 = Louvain.numCommunities(Louvain.cluster(g, 1))
    val h = repro.core.Sparsifiers.random(g, 0.8, 1)
    val k1 = Louvain.numCommunities(Louvain.cluster(h, 1))
    assert(k1 > k0)
  }

  // ---- F1 ----
  test("F1 of identical clusterings is 1") {
    val c = Array(0, 0, 1, 1, 2)
    assert(ClusterF1.f1(c, c) === 1.0)
  }

  test("F1 is label-permutation invariant") {
    val a = Array(0, 0, 1, 1)
    val b = Array(7, 7, 3, 3)
    assert(ClusterF1.f1(a, b) === 1.0)
  }

  test("F1 of a merged clustering reflects lost precision") {
    val fine = Array(0, 0, 1, 1)
    val merged = Array(0, 0, 0, 0)
    // best-match pairwise F1 each direction: 2·2/(4+2) = 2/3
    assert(math.abs(ClusterF1.f1(merged, fine) - 2.0 / 3.0) < 1e-12)
  }

  test("F1 penalizes shattering into singletons (why the paper's printed formula is not used)") {
    val reference = Array.fill(50)(0) ++ Array.fill(50)(1)
    val singletons = Array.tabulate(100)(identity)
    // the paper's §2.2.4 formula scores a fully-shattered clustering 1.0 …
    assert(ClusterF1.f1PaperFormula(singletons, reference) === 1.0)
    // … the best-match F1 correctly scores it near 0
    assert(ClusterF1.f1(singletons, reference) < 0.1)
  }

  test("paper-formula F1 matches the printed example semantics on identical clusterings") {
    val c = Array(0, 0, 1, 2)
    assert(ClusterF1.f1PaperFormula(c, c) === 1.0)
  }

  test("F1 similarity of a graph with itself is high") {
    val g = Datasets.get(spark, "ca-HepPh", 0.12)
    val f = ClusterF1.f1(Louvain.cluster(g, 1), Louvain.cluster(g, 2))
    assert(f > 0.5, s"self-F1 too low: $f")
  }
}
