package repro.metrics

import java.util.concurrent.ForkJoinPool
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.SparkGraph
import repro.harness.Fmt

/** [[QuadraticForm]] on pools of 1, 2 and 4 workers against
  * `java.util.Random` and [[BoxedQuadraticForm]], the form it replaced:
  * the Gaussian stream and every ratio have the oracle's
  * `doubleToRawLongBits`, so neither the pool size, nor the inline
  * generator, nor drawing the vectors once per original graph moves a bit.
  */
class QuadraticFormParitySpec extends AnyFunSuite with BeforeAndAfterAll {

  private val pools = Seq(1, 2, 4).map(new ForkJoinPool(_))

  override def afterAll(): Unit = { pools.foreach(_.shutdown()); super.afterAll() }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Equal lengths and equal bits at every index (a failure prints no arrays). */
  private def sameBits(got: Array[Double], want: Array[Double]): Boolean =
    got.length == want.length && got.indices.forall(i => bits(got(i)) == bits(want(i)))

  test("the Gaussian stream has java.util.Random's bits on pools of 1, 2 and 4") {
    for (seed <- Seq(-3L, 0L, 1L, 7L, Long.MinValue, Long.MaxValue);
         len <- Seq(0, 1, 2, 3, 1441, 4 * QuadraticForm.GaussianChunk + 1)) {
      val rng = new java.util.Random(seed)
      val want = Array.fill(len)(rng.nextGaussian())
      for (pool <- pools)
        assert(sameBits(QuadraticForm.gaussians(seed, len, pool), want), s"seed $seed, length $len, pool ${pool.getParallelism}")
    }
  }

  /** `active` vertices with a random tree and 2·`active` random extra
    * edges, then `isolated` vertices; weights in thirds (not exact in
    * binary) when weighted. Returns the graph and a subgraph of about three
    * of every four edges.
    */
  private def randomGraphs(kind: String, active: Int, isolated: Int, seed: Long): (SparkGraph, SparkGraph) = {
    val rng = new Random(seed)
    val tree = (1 until active).map(i => (rng.nextInt(i), i))
    val extra = Seq.fill(2 * active)((rng.nextInt(active), rng.nextInt(active)))
    val directed = kind == "directed"
    val pairs = (tree ++ extra).collect {
      case (u, v) if u != v => if (directed && rng.nextBoolean()) (v, u) else if (directed) (u, v) else (u min v, u max v)
    }.distinct.sorted
    val weighted = kind == "weighted"
    val wt = pairs.map(_ => if (weighted) 1.0 + rng.nextInt(5) / 3.0 else 1.0)
    val kept = pairs.indices.filter(_ => rng.nextInt(4) != 0)
    val n = active + isolated
    def graph(name: String, idx: Seq[Int]) = SparkGraph.fromCanonical(name, idx.map(pairs(_)._1).toArray,
      idx.map(pairs(_)._2).toArray, idx.map(wt).toArray, directed, weighted, n)
    val name = s"$kind-$active+$isolated"
    (graph(name, pairs.indices), graph(s"$name-sub", kept))
  }

  test("meanRatio and ratioTo have the boxed form's bits on pools of 1, 2 and 4") {
    // n = 47 and 1441: odd, so n·nVectors is odd at 1 and 3 vectors and some
    // Gaussian pairs straddle two vectors.
    for (kind <- Seq("unweighted", "weighted", "directed"); (active, isolated) <- Seq((40, 7), (1400, 41))) {
      val (g, sub) = randomGraphs(kind, active, isolated, seed = 31L * active + kind.length)
      val empty = SparkGraph.fromCanonical(s"${g.name}-empty", Array.emptyIntArray, Array.emptyIntArray,
        Array.emptyDoubleArray, g.directed, g.weighted, g.numVertices)
      for (nVectors <- Seq(1, 3, 100); seed <- Seq(0L, 5L)) {
        val hs = Seq(g, sub, empty)
        val want = hs.map(h => bits(BoxedQuadraticForm.meanRatio(g, h, nVectors, seed)))
        for (pool <- pools) {
          val where = s"${g.name}, $nVectors vectors, seed $seed, pool ${pool.getParallelism}"
          assert(hs.map(h => bits(QuadraticForm.meanRatio(g, h, nVectors, seed, pool))) === want, where)
          val ratio = QuadraticForm.ratioTo(g, nVectors, seed, pool)
          assert(hs.map(h => bits(ratio(h))) === want, where)
        }
      }
    }
  }

  test("an edgeless original graph gives NaN, which a sweep table prints as n/a") {
    val empty = SparkGraph.fromCanonical("qf-empty", Array.emptyIntArray, Array.emptyIntArray,
      Array.emptyDoubleArray, directed = false, weighted = false, 5)
    val (g, _) = randomGraphs("unweighted", 5, 0, seed = 9)
    for (h <- Seq(empty, g)) {
      assert(QuadraticForm.meanRatio(empty, h).isNaN)
      assert(QuadraticForm.ratioTo(empty, nVectors = 3)(h).isNaN)
    }
    assert(Fmt.fmtD(QuadraticForm.meanRatio(empty, empty)) === "n/a")
  }
}
