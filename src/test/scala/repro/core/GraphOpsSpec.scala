package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.metrics.{Connectivity, Csr}

class GraphOpsSpec extends SparkSpec {
  import GraphOps._

  private lazy val triangle = fromPairs(spark, "tri", Seq((0, 1), (1, 2), (0, 2)), directed = false, 3)
  private lazy val pathDir  = fromPairs(spark, "pdir", Seq((0, 1), (1, 2), (2, 3)), directed = true, 4)

  test("canonicalize drops self loops") {
    import spark.implicits._
    val e = Seq((1L, 1L, 1.0), (1L, 2L, 1.0)).toDF("src", "dst", "weight")
    assert(canonicalize(e, directed = true).count() === 1)
  }

  test("canonicalize dedupes undirected edges regardless of orientation") {
    import spark.implicits._
    val e = Seq((1L, 2L, 1.0), (2L, 1L, 3.0), (1L, 2L, 2.0)).toDF("src", "dst", "weight")
    val c = canonicalize(e, directed = false).collect()
    assert(c.length === 1)
    assert(c(0).getLong(0) === 1L && c(0).getLong(1) === 2L)
    assert(c(0).getDouble(2) === 3.0) // max weight wins
  }

  test("canonicalize keeps reciprocal directed edges distinct") {
    import spark.implicits._
    val e = Seq((1L, 2L, 1.0), (2L, 1L, 1.0)).toDF("src", "dst", "weight")
    assert(canonicalize(e, directed = true).count() === 2)
  }

  test("undirected edges stored with src < dst") {
    val g = fromPairs(spark, "c5", Seq((4, 0), (3, 4), (2, 3), (1, 2), (0, 1)), directed = false, 5)
    assert(edgesDf(g).filter(col("src") >= col("dst")).count() === 0)
    assert(g.numEdges === 5)
  }

  test("arcs doubles undirected edges and preserves directed ones") {
    assert(Csr.fromGraph(triangle, symmetric = false).nbrs.length === 6)
    assert(Csr.fromGraph(pathDir, symmetric = false).nbrs.length === 3)
  }

  /** Degrees in the arcs view: undirected degree, or out-degree. */
  private def arcDegrees(g: SparkGraph): Seq[Int] = {
    val c = Csr.fromGraph(g, symmetric = false)
    (0 until c.n).map(c.degree)
  }

  test("degrees of a triangle are all 2") {
    assert(arcDegrees(triangle) === Seq(2, 2, 2))
  }

  test("degrees of a directed path are out-degrees") {
    assert(arcDegrees(pathDir) === Seq(1, 1, 1, 0)) // vertex 3 is a sink
  }

  test("total degrees of a directed path count both endpoints") {
    val c = Csr.fromGraph(pathDir)
    assert((0 until 4).map(c.degree) === Seq(1, 2, 2, 1))
  }

  test("degrees match DuckDB oracle") {
    import spark.implicits._
    val g = repro.graphs.Datasets.get(spark, "ego-Facebook", 0.1)
    val c = Csr.fromGraph(g)
    val csrDeg = (0 until c.n).filter(c.degree(_) > 0)
      .map(v => (v.toLong, c.degree(v).toLong)).toDF("v", "deg")
    Oracle.assertEquivalent(
      csrDeg,
      """SELECT v, COUNT(*) AS deg FROM
        |  (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges)
        |GROUP BY v""".stripMargin,
      "edges" -> edgesDf(g))
  }

  test("symmetrize merges reciprocal directed edges") {
    val g = fromPairs(spark, "recip", Seq((0, 1), (1, 0), (1, 2)), directed = true, 3)
    val u = g.symmetrized
    assert(!u.directed)
    assert(u.numEdges === 2)
    assert(g.symmetrized eq u)
  }

  test("symmetrize is a no-op on undirected graphs") {
    assert(triangle.symmetrized eq triangle)
  }

  test("isolatedRatio counts untouched vertices") {
    val g = fromPairs(spark, "iso", Seq((0, 1)), directed = false, 5)
    assert(Connectivity.isolatedRatio(g) === 3.0 / 5)
    assert(Connectivity.isolatedRatio(triangle) === 0.0)
  }

  test("fromArrays round-trips weights") {
    val g = fromArrays(spark, "w", Array(0, 1), Array(1, 2), Array(2.5, 0.5),
      directed = false, weighted = true, 3)
    val w = edgesDf(g).orderBy("src").collect().map(_.getDouble(2)).toSeq
    assert(w === Seq(2.5, 0.5))
  }

  test("collectEdges returns all canonical edges") {
    val (s, d, w) = collectEdges(triangle)
    assert(s.length === 3 && d.length === 3 && w.forall(_ == 1.0))
    assert(s.zip(d).toSet === Set((0, 1), (1, 2), (0, 2)))
  }

  test("edge count via DuckDB oracle on a generated graph") {
    val g = repro.graphs.Datasets.get(spark, "com-DBLP", 0.1)
    val cnt = edgesDf(g).agg(count(lit(1)) as "m")
    Oracle.assertEquivalent(cnt, "SELECT COUNT(*) AS m FROM edges", "edges" -> edgesDf(g))
  }
}
