package repro.metrics

import java.util.concurrent.ForkJoinPool
import scala.util.Random
import repro.SparkSpec
import repro.core.SparkGraph
import repro.metrics.Distances.StretchResult

/** The traversal kernels on pools of 1, 2 and 4 workers against
  * [[SequentialTraversals]], the one-thread loops they replaced: every
  * output has the oracle's `doubleToRawLongBits`, so neither the pool size
  * nor the split into tasks moves a bit.
  *
  * Each input has `active` vertices in two random components (a random
  * tree each, plus random extra edges) and `isolated` vertices after them,
  * in three kinds: unweighted, weighted (weights in thirds, which are not
  * exact in binary, on the Dijkstra path) and directed. Its sparsified
  * graph keeps about three of every four edges. With `active` at 1, 63,
  * 64, 65 and 129 the kernels see that many sources: betweenness (when
  * nothing is isolated), closeness, eccentricity, and SPSP with ten pairs
  * per source. Betweenness also runs where its blocks take several waves
  * (300 vertices) and its row sum several chunks (4200 vertices).
  */
class PoolParitySpec extends SparkSpec {

  private val pools = Seq(1, 2, 4).map(new ForkJoinPool(_))

  override def afterAll(): Unit = { pools.foreach(_.shutdown()); super.afterAll() }

  private final class Case(val name: String, val g: SparkGraph, val spar: SparkGraph, val sources: Int)

  private def randomCase(kind: String, active: Int, isolated: Int, seed: Long): Case = {
    val rng = new Random(seed)
    val half = active / 2
    def partner(i: Int): Int = if (i < half) rng.nextInt(i) else half + rng.nextInt(i - half)
    val tree = (1 until active).filter(_ != half).map(i => (partner(i), i))
    val extra = Seq.fill(2 * active) {
      val lo = if (rng.nextBoolean() || active - half < 2) 0 else half
      val hi = if (lo == 0 && half >= 2) half else active
      (lo + rng.nextInt(hi - lo), lo + rng.nextInt(hi - lo))
    }
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
    new Case(name, graph(name, pairs.indices), graph(s"$name-sub", kept), active)
  }

  private lazy val cases: Seq[Case] =
    for (kind <- Seq("unweighted", "weighted", "directed"); active <- Seq(1, 63, 64, 65, 129); isolated <- Seq(0, 7))
      yield randomCase(kind, active, isolated, seed = 1000L * active + isolated + kind.length)

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
  private def bits(r: StretchResult): (Long, Long, Int) =
    (java.lang.Double.doubleToRawLongBits(r.meanStretch), java.lang.Double.doubleToRawLongBits(r.unreachableFrac), r.pairs)

  test("betweenness has the sequential loop's bits on pools of 1, 2 and 4") {
    val large = Seq(randomCase("unweighted", 300, 0, 11), randomCase("directed", 300, 5, 12),
      randomCase("unweighted", 4200, 3, 13))
    for (c <- cases ++ large) {
      val want = bits(SequentialTraversals.betweenness(c.g))
      for (pool <- pools) assert(bits(Centrality.betweenness(c.g, pool)) === want, s"${c.name}, pool ${pool.getParallelism}")
    }
  }

  test("closeness has the sequential loop's bits on pools of 1, 2 and 4") {
    for (c <- cases) {
      val want = bits(SequentialTraversals.closeness(c.g))
      for (pool <- pools) assert(bits(Centrality.closeness(c.g, pool)) === want, s"${c.name}, pool ${pool.getParallelism}")
    }
  }

  test("SPSP stretch has the sequential loop's bits on pools of 1, 2 and 4") {
    for (c <- cases; seed <- Seq(3L, 4L)) {
      val want = bits(SequentialTraversals.spspStretch(c.g, c.spar, 10 * c.sources, seed))
      for (pool <- pools)
        assert(bits(Distances.spspStretch(c.g, c.spar, 10 * c.sources, seed, pool)) === want,
          s"${c.name}, seed $seed, pool ${pool.getParallelism}")
    }
  }

  test("eccentricity stretch has the sequential loop's bits on pools of 1, 2 and 4") {
    for (c <- cases; seed <- Seq(3L, 4L)) {
      val want = bits(SequentialTraversals.eccentricityStretch(c.g, c.spar, c.sources, seed))
      for (pool <- pools)
        assert(bits(Distances.eccentricityStretch(c.g, c.spar, c.sources, seed, pool)) === want,
          s"${c.name}, seed $seed, pool ${pool.getParallelism}")
    }
  }
}
