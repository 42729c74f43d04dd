package repro.core

import repro.SparkSpec
import repro.graphs.GraphGen

/** The kept edge sets of the driver sparsifiers on fixed inputs and seeds.
  * Rank Degree and Forest Fire walk neighbour lists with a seeded RNG, so
  * their output depends on the order in which the CSR lists each vertex's
  * neighbours; Spanning Forest, the 3-spanner and ER-weighted depend on the
  * edge order. The inputs are local relations, which collect in row order
  * whatever the core count.
  */
class SparsifierOrderSpec extends SparkSpec {

  private def fixture(name: String, edges: Seq[(Int, Int, Double)], directed: Boolean): SparkGraph = {
    import spark.implicits._
    val df = edges.map { case (u, v, w) => (u.toLong, v.toLong, w) }.toDF("src", "dst", "weight")
    SparkGraph(name, df, directed, weighted = !directed, numVertices = 40)
  }

  private lazy val und = fixture("order-und",
    GraphGen.wattsStrogatz(40, 6, 0.3, 5).toSeq.map { case (u, v) => (math.min(u, v), math.max(u, v)) }
      .distinct.sorted.map { case (u, v) => (u, v, 1.0 + (7 * u + 3 * v) % 5) },
    directed = false)

  private lazy val dir = fixture("order-dir",
    GraphGen.directedPowerLaw(40, 3, 7).toSeq.filter { case (u, v) => u != v }
      .distinct.sorted.map { case (u, v) => (u, v, 1.0) },
    directed = true)

  private def kept(h: SparkGraph): String = {
    val (s, d, _) = GraphOps.collectEdges(h)
    s.indices.map(i => (s(i), d(i))).sorted.map { case (u, v) => s"$u-$v" }.mkString(" ")
  }

  private val expected = Map(
    "RD" -> (
      "1-3 1-4 1-38 1-39 3-4 3-5 3-6 3-17 4-6 4-7 4-17 5-6 5-20 5-26 5-33 6-7 6-9 7-8 7-9 " +
      "7-10 7-33 9-17 9-27 11-14 12-14 13-14 13-15 13-16 13-17 14-15 14-16 15-17 15-18 " +
      "15-24 16-17 16-28 17-20 17-34 19-20 20-23 20-34 23-24 23-26 23-38 24-26 24-27 25-27 " +
      "26-27 26-28 27-28 31-33 31-34 31-39 33-34 34-37 35-38 36-38 36-39 38-39"),
    "FF" -> (
      "1-4 3-17 4-7 5-6 5-20 5-26 5-33 6-9 6-21 7-9 7-10 8-9 8-11 8-20 9-11 9-27 10-12 " +
      "10-13 11-12 11-13 11-14 12-13 12-14 12-15 13-16 13-17 14-15 14-16 15-17 15-18 15-24 " +
      "16-17 16-18 16-19 16-28 17-21 17-34 18-19 18-20 18-32 19-22 19-25 20-23 20-34 21-24 " +
      "22-24 23-24 24-25 24-26 24-27 25-26 25-30 26-28 26-29 28-29 28-30 28-31 29-32 30-31"),
    "SF" -> (
      "0-37 1-3 1-38 2-4 2-39 3-5 3-35 4-6 5-20 5-22 6-21 7-9 8-20 9-11 10-12 11-13 12-14 " +
      "13-15 14-16 15-17 16-18 16-28 17-34 18-19 18-20 22-24 22-39 23-25 23-38 24-26 25-27 " +
      "25-30 27-29 29-31 30-32 31-33 34-36 36-38 37-39"),
    "SP-3" -> (
      "0-37 1-3 1-38 2-4 2-39 3-5 3-17 3-35 4-6 5-20 5-22 6-7 6-21 7-8 7-9 7-33 8-20 9-10 " +
      "9-11 10-12 11-13 12-14 13-15 14-16 15-17 15-24 16-18 16-28 17-21 17-34 18-19 18-20 " +
      "22-24 22-39 23-25 23-38 24-26 25-27 25-30 26-28 27-29 28-30 29-31 30-32 31-33 33-35 " +
      "34-36 36-37 36-38 37-39"),
    "ER-w" -> (
      "0-3 0-26 1-2 1-38 2-4 3-6 3-35 4-7 4-17 5-6 6-7 7-8 7-10 7-33 8-11 8-20 9-10 9-11 " +
      "9-17 9-27 10-13 11-12 11-14 12-15 13-14 13-15 13-16 14-15 14-16 15-24 16-17 16-19 " +
      "16-28 18-20 18-32 19-20 19-22 19-25 21-22 21-24 22-39 24-25 24-27 25-26 25-30 26-27 " +
      "26-29 27-28 27-30 28-31 29-31 29-32 30-33 33-34 34-37 35-36 35-38 36-37 37-38 38-39"),
    "RD-dir" -> (
      "0-1 2-0 2-1 3-0 3-1 3-2 4-0 4-1 4-3 5-0 5-2 5-3 7-0 7-3 7-5 9-1 9-4 9-7 10-2 10-5 " +
      "10-9 11-2 11-4 11-9 12-2 12-3 12-9 13-1 13-2 13-3 15-7 15-9 15-11 17-2 17-5 17-15 " +
      "18-5 18-9 18-15 20-4 20-5 20-18 21-0 21-15 21-17 23-10 23-11 23-13 24-9 24-11 24-20 " +
      "26-5 26-7 26-12 28-2 28-3 28-9"),
    "FF-dir" -> (
      "0-1 2-0 2-1 3-0 3-1 3-2 4-0 4-1 4-3 5-0 5-2 5-3 6-1 6-4 6-5 7-0 7-3 7-5 9-1 9-4 9-7 " +
      "10-5 10-9 11-2 11-4 11-9 12-2 12-3 12-9 13-1 13-3 15-7 15-9 15-11 17-2 17-5 17-15 " +
      "21-0 21-15 21-17 22-3 22-10 25-0 25-15 26-5 26-12 30-1 30-4 32-2 32-7 32-31 34-6 " +
      "34-13 34-25 38-12 38-33 38-34"))

  for ((label, input, sp) <- Seq(
      ("RD", () => und, Sparsifiers.rankDegree),
      ("FF", () => und, Sparsifiers.forestFire),
      ("SF", () => und, Sparsifiers.spanningForest),
      ("SP-3", () => und, Sparsifiers.tSpanner),
      ("ER-w", () => und, Sparsifiers.erWeighted),
      ("RD-dir", () => dir, Sparsifiers.rankDegree),
      ("FF-dir", () => dir, Sparsifiers.forestFire)))
    test(s"$label keeps the same edges on a fixed graph and seed") {
      assert(kept(sp(input(), 0.5, seed = 3)) === expected(label))
    }
}
