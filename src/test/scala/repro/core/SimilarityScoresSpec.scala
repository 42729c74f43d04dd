package repro.core

import repro.{Oracle, SparkSpec}
import repro.core.sparsifiers.SimilarityScores

class SimilarityScoresSpec extends SparkSpec {
  import spark.implicits._

  // K4 minus one edge: N(0)={1,2,3}, N(1)={0,2,3}, N(2)={0,1}, N(3)={0,1}
  private lazy val diamond = GraphOps.fromPairs(spark, "diamond",
    Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), directed = false, 4)

  /** One score array of `g`, keyed by edge. */
  private def byEdge[T](g: SparkGraph)(f: SimilarityScores => Array[T]): Map[(Int, Int), T] = {
    val (s, d, _) = GraphOps.collectEdges(g)
    val v = f(SimilarityScores.forGraph(g))
    s.indices.map(i => (s(i), d(i)) -> v(i)).toMap
  }

  /** The scores of `g` as a (src, dst, common, jaccard, scan) frame. */
  private def frame(g: SparkGraph) = {
    val (s, d, _) = GraphOps.collectEdges(g)
    val sc = SimilarityScores.forGraph(g)
    s.indices.map(i => (s(i).toLong, d(i).toLong, sc.common(i).toLong, sc.jaccard(i), sc.scan(i)))
      .toDF("src", "dst", "common", "jaccard", "scan")
  }

  private lazy val hepPh = repro.graphs.Datasets.get(spark, "ca-HepPh", 0.08)

  test("common neighbour counts on the diamond graph") {
    val s = byEdge(diamond)(_.common)
    assert(s((0, 1)) === 2) // 2 and 3
    assert(s((0, 2)) === 1) // 1
    assert(s((1, 3)) === 1) // 0
  }

  test("jaccard scores on the diamond graph") {
    val s = byEdge(diamond)(_.jaccard)
    // edge (0,1): |N∩|=2, |N∪|=3+3-2=4
    assert(math.abs(s((0, 1)) - 0.5) < 1e-12)
    // edge (0,2): |N∩|=1, |N∪|=3+2-1=4
    assert(math.abs(s((0, 2)) - 0.25) < 1e-12)
  }

  test("scan scores on the diamond graph follow the paper's formula") {
    val s = byEdge(diamond)(_.scan)
    assert(math.abs(s((0, 1)) - 3.0 / math.sqrt(16.0)) < 1e-12)
    assert(math.abs(s((0, 2)) - 2.0 / math.sqrt(12.0)) < 1e-12)
  }

  test("common-neighbour counts match DuckDB oracle") {
    Oracle.assertEquivalent(
      frame(hepPh).filter($"common" > 0).select("src", "dst", "common"),
      """WITH arcs AS (
        |  SELECT src AS u, dst AS v FROM edges
        |  UNION ALL SELECT dst AS u, src AS v FROM edges)
        |SELECT e.src, e.dst, COUNT(*) AS common
        |FROM edges e
        |JOIN arcs a ON a.u = e.src
        |JOIN arcs b ON b.u = e.dst AND b.v = a.v
        |GROUP BY e.src, e.dst""".stripMargin,
      "edges" -> edgesDf(hepPh))
  }

  test("jaccard and SCAN scores match DuckDB oracle") {
    Oracle.assertEquivalent(
      frame(hepPh).select("src", "dst", "jaccard", "scan"),
      """WITH e AS (SELECT CAST(src AS BIGINT) AS src, CAST(dst AS BIGINT) AS dst FROM edges),
        |arcs AS (SELECT src AS u, dst AS v FROM e UNION ALL SELECT dst AS u, src AS v FROM e),
        |deg AS (SELECT u AS v, COUNT(*) AS d FROM arcs GROUP BY u),
        |common AS (
        |  SELECT e.src, e.dst, COUNT(b.v) AS c
        |  FROM e JOIN arcs a ON a.u = e.src
        |  LEFT JOIN arcs b ON b.u = e.dst AND b.v = a.v
        |  GROUP BY e.src, e.dst)
        |SELECT c.src, c.dst,
        |  CAST(c.c AS DOUBLE) / (ds.d + dd.d - c.c) AS jaccard,
        |  (c.c + 1) / SQRT(CAST((ds.d + 1) * (dd.d + 1) AS DOUBLE)) AS scan
        |FROM common c JOIN deg ds ON ds.v = c.src JOIN deg dd ON dd.v = c.dst""".stripMargin,
      "edges" -> edgesDf(hepPh))
  }

  test("isolated-endpoint edges get zero jaccard without crashing") {
    // star: leaves share no neighbours
    val star = GraphOps.fromPairs(spark, "star5", (1 to 4).map(i => (0, i)), directed = false, 5)
    val s = SimilarityScores.forGraph(star)
    assert(s.jaccard.length === 4)
    assert(s.jaccard.forall(_ === 0.0)) // no common neighbours anywhere
  }

  test("directed graphs use out-neighbourhoods") {
    // 0->2, 1->2 : edge (0,1) absent; edge 0->1 with both pointing at 2
    val g = GraphOps.fromPairs(spark, "dirsim", Seq((0, 1), (0, 2), (1, 2)), directed = true, 3)
    val s = byEdge(g)(_.common)
    // edge (0,1): N_out(0)={1,2}, N_out(1)={2} → common {2}
    assert(s((0, 1)) === 1)
    // edge (1,2): N_out(2)={} → common 0
    assert(s((1, 2)) === 0)
  }

  test("score cache returns the same scores instance per graph") {
    val a = SimilarityScores.forGraph(diamond)
    val b = SimilarityScores.forGraph(diamond)
    assert(a eq b)
  }
}
