package repro.metrics

import repro.{Oracle, SparkSpec}
import repro.core.{GraphOps, SparkGraph}
import repro.graphs.Datasets

/** `Centrality.pagerank` against closed forms where a graph's structure
  * gives one (run to convergence), and against a DuckDB one-step oracle
  * where it does not.
  */
class PageRankSpec extends SparkSpec {

  private val d = 0.85

  private def assertScores(g: SparkGraph, expected: Seq[Double]): Unit = {
    val pr = Centrality.pagerank(g, iters = 200)
    assert(pr.length === expected.length)
    pr.indices.foreach { v =>
      assert(math.abs(pr(v) - expected(v)) < 1e-12, s"v=$v pr=${pr(v)} expected=${expected(v)}")
    }
  }

  /** One power step from the uniform vector, recomputed in SQL over the
    * graph's arcs (an undirected edge in both directions):
    * n·pr₁(v) = (1−d) + d·Σ_{u→v} w_uv / outw(u) + d·#dangling/n.
    * Compared as n·pr so the oracle's six decimals are significant.
    */
  private def assertOneStep(g: SparkGraph): Unit = {
    import spark.implicits._
    val n = g.numVertices.toInt
    val pr = Centrality.pagerank(g, iters = 1)
    val reverse = if (g.directed) "" else "UNION ALL SELECT dst AS u, src AS v, w FROM e"
    Oracle.assertEquivalent(
      pr.indices.map(v => (v.toLong, n * pr(v))).toDF("v", "npr"),
      s"""WITH e AS (SELECT CAST(src AS BIGINT) AS src, CAST(dst AS BIGINT) AS dst,
        |                  CAST(weight AS DOUBLE) AS w FROM edges),
        |     a AS (SELECT src AS u, dst AS v, w FROM e $reverse),
        |     outw AS (SELECT u, SUM(w) AS ow FROM a GROUP BY u),
        |     inflow AS (SELECT a.v, SUM(a.w / outw.ow) AS f
        |                FROM a JOIN outw ON a.u = outw.u GROUP BY a.v),
        |     vx AS (SELECT CAST(v AS BIGINT) AS v FROM vs),
        |     dang AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd FROM vx
        |              WHERE v NOT IN (SELECT u FROM outw))
        |SELECT vx.v AS v,
        |       CAST(0.15 AS DOUBLE) + 0.85 * COALESCE(inflow.f, 0.0) + 0.85 * dang.nd / (SELECT COUNT(*) FROM vx) AS npr
        |FROM vx LEFT JOIN inflow ON vx.v = inflow.v CROSS JOIN dang""".stripMargin,
      "edges" -> edgesDf(g), "vs" -> spark.range(n).toDF("v"))
  }

  test("pagerank of an undirected triangle is uniform") {
    assertScores(GraphOps.fromPairs(spark, "pr-tri", Seq((0, 1), (1, 2), (0, 2)), directed = false, 3),
      Seq.fill(3)(1.0 / 3))
  }

  test("pagerank of a directed path with a dangling sink has its closed form") {
    // p_k = b + d·p_{k−1} with p_0 = b, so p_k ∝ 1 + d + … + d^k
    val c = (0 until 4).map(k => (0 to k).map(j => math.pow(d, j)).sum)
    assertScores(GraphOps.fromPairs(spark, "pr-path", Seq((0, 1), (1, 2), (2, 3)), directed = true, 4),
      c.map(_ / c.sum))
  }

  test("pagerank of a star has its closed form") {
    // hub h = 0.15/7 + d·6l and leaf l = 0.15/7 + d·h/6 with h + 6l = 1
    val hub = (1 + 6 * d) / (7 * (1 + d))
    assertScores(GraphOps.fromPairs(spark, "pr-star", (1 to 6).map(i => (0, i)), directed = false, 7),
      hub +: Seq.fill(6)((1 - hub) / 6))
  }

  test("pagerank with isolated vertices has its closed form") {
    // each isolated vertex b = 0.15/4 + d·2b/4 (two dangling vertices);
    // the edge's endpoints share the rest
    val iso = (1 - d) / (4 - 2 * d)
    assertScores(GraphOps.fromPairs(spark, "pr-iso", Seq((0, 1)), directed = false, 4),
      Seq.fill(2)((1 - 2 * iso) / 2) ++ Seq.fill(2)(iso))
  }

  test("one pagerank step matches DuckDB on a weighted graph") {
    assertOneStep(GraphOps.fromArrays(spark, "pr-w", Array(0, 0, 1), Array(1, 2, 2),
      Array(3.0, 1.0, 2.0), directed = true, weighted = true, 3))
  }

  test("one pagerank step matches DuckDB on a directed web-like graph") {
    assertOneStep(Datasets.get(spark, "web-NotreDame", 0.05))
  }

  test("pagerank mass is conserved (sums to 1)") {
    val g = Datasets.get(spark, "web-Google", 0.05)
    val pr = Centrality.pagerank(g, iters = 10)
    assert(math.abs(pr.sum - 1.0) < 1e-6)
  }

  test("pagerank favours high in-degree vertices on directed stars") {
    val g = GraphOps.fromPairs(spark, "pr-instar", (1 to 5).map(i => (i, 0)), directed = true, 6)
    val pr = Centrality.pagerank(g, iters = 15)
    (1 to 5).foreach(i => assert(pr(0) > pr(i)))
  }
}
