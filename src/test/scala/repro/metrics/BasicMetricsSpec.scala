package repro.metrics

import repro.{Oracle, SparkSpec}
import repro.core.{GraphOps, Sparsifiers}
import repro.graphs.Datasets

class BasicMetricsSpec extends SparkSpec {

  private lazy val twoComp = GraphOps.fromPairs(spark, "conn2c",
    Seq((0, 1), (1, 2), (3, 4)), directed = false, 6) // {0,1,2} {3,4} {5}

  // ---- connectivity ----
  test("unreachableRatio of a connected graph is 0") {
    val tri = GraphOps.fromPairs(spark, "tri3", Seq((0, 1), (1, 2), (0, 2)), directed = false, 3)
    assert(Connectivity.unreachableRatio(tri) === 0.0)
  }

  test("unreachableRatio counts cross-component and isolated pairs") {
    // reachable ordered pairs: 3·2 + 2·1 = 8 of 30
    assert(math.abs(Connectivity.unreachableRatio(twoComp) - (1.0 - 8.0 / 30.0)) < 1e-12)
  }

  test("isolatedRatio counts vertices with no edges") {
    assert(math.abs(Connectivity.isolatedRatio(twoComp) - 1.0 / 6.0) < 1e-12)
  }

  test("unreachableRatio increases monotonically-ish with pruning") {
    val g = Datasets.get(spark, "ca-AstroPh", 0.12)
    val r0 = Connectivity.unreachableRatio(g)
    val h = Sparsifiers.random(g, 0.8, seed = 1)
    assert(Connectivity.unreachableRatio(h) >= r0)
  }

  // ---- degree distribution ----
  test("bhattacharyya distance of identical distributions is 0") {
    val p = Array(0.25, 0.5, 0.25)
    assert(DegreeDistribution.bhattacharyya(p, p) < 1e-12)
  }

  test("bhattacharyya distance of disjoint distributions is large") {
    val p = Array(1.0, 0.0); val q = Array(0.0, 1.0)
    assert(DegreeDistribution.bhattacharyya(p, q) > 100)
  }

  test("degree-distribution distance of a graph to itself is 0") {
    val g = Datasets.get(spark, "ego-Facebook", 0.1)
    assert(DegreeDistribution.distance(g, g) < 1e-12)
  }

  test("Random preserves degree distribution better than Local Degree") {
    // full bench scale: at tiny scales the 100-bin histograms are too sparse
    // for the comparison to be meaningful (sampling noise dominates)
    val g = Datasets.get(spark, "ogbn-proteins", 1.0)
    val dRn = DegreeDistribution.distance(g, Sparsifiers.random(g, 0.4, 1))
    val dLd = DegreeDistribution.distance(g, Sparsifiers.localDegree(g, 0.4, 1))
    assert(dRn < dLd, f"RN=$dRn%.4f should beat LD=$dLd%.4f (paper Fig 2)")
  }

  test("histogram includes isolated vertices in bin zero") {
    val h = DegreeDistribution.histogram(twoComp, maxDeg = 99)
    assert(math.abs(h(0) - 1.0 / 6.0) < 1e-12) // vertex 5 only
  }

  // ---- quadratic form ----
  test("quadratic form of a single edge is w·(x_u − x_v)²") {
    val g = GraphOps.fromArrays(spark, "qf1", Array(0), Array(1), Array(2.0),
      directed = false, weighted = true, 2)
    assert(math.abs(QuadraticForm.qfDriver(g, Array(Array(3.0, 1.0)))(0) - 8.0) < 1e-12)
  }

  test("driver quadratic form matches DuckDB oracle") {
    import spark.implicits._
    val g = Datasets.get(spark, "com-DBLP", 0.08)
    val rng = new scala.util.Random(3)
    val x = Array.fill(g.numVertices.toInt)(rng.nextGaussian())
    Oracle.assertEquivalent(
      Seq(QuadraticForm.qfDriver(g, Array(x))(0)).toDF("qf"),
      """SELECT SUM(CAST(e.weight AS DOUBLE) *
        |           (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) *
        |           (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE))) AS qf
        |FROM edges e JOIN xs a ON a.v = e.src JOIN xs b ON b.v = e.dst""".stripMargin,
      "edges" -> edgesDf(g), "xs" -> x.indices.map(v => (v.toLong, x(v))).toDF("v", "x"))
  }

  test("meanRatio of a graph against itself is 1") {
    val g = Datasets.get(spark, "ego-Facebook", 0.1)
    assert(math.abs(QuadraticForm.meanRatio(g, g, nVectors = 20) - 1.0) < 1e-9)
  }

  test("meanRatio of an unweighted subgraph is below 1") {
    val g = Datasets.get(spark, "ego-Facebook", 0.1)
    val h = Sparsifiers.random(g, 0.5, 1)
    val r = QuadraticForm.meanRatio(g, h, nVectors = 20)
    assert(r > 0 && r < 1)
  }
}
