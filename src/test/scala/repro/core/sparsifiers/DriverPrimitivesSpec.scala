package repro.core.sparsifiers

import scala.util.Random
import repro.SparkSpec
import repro.core.{GraphOps, SparkGraph, Sparsifiers}
import repro.graphs.Datasets
import repro.metrics.Centrality

/** The callers of the shared driver primitives (`Csr.shuffle`,
  * `Csr.sortedIndices`, `Csr.withArcs`) against the boxed forms they
  * replaced: Forest Fire against its test-scope oracle, the coarse cut of
  * K-Neighbor and L-Spar against the old level rule, and top-k precision
  * against the old `sortBy`.
  */
class DriverPrimitivesSpec extends SparkSpec {

  private def edges(g: SparkGraph): Seq[(Int, Int, Double)] = {
    val (s, d, w) = GraphOps.collectEdges(g)
    s.indices.map(i => (s(i), d(i), w(i)))
  }

  test("Forest Fire keeps the boxed oracle's edges, in its order, on datasets at scale 0.25") {
    for (name <- Seq("ego-Facebook", "ca-AstroPh", "ego-Twitter", "web-Google");
         rho <- Seq(0.1, 0.5, 0.9); seed <- Seq(7L, 1007L)) {
      val g = Datasets.get(spark, name, 0.25)
      assert(edges(Sparsifiers.forestFire(g, rho, seed)) === edges(BoxedForestFire.sparsify(g, rho, seed)),
        s"$name ρ=$rho seed=$seed")
    }
  }

  /** Canonical random edges on 0 until n, sorted, unit weights. */
  private def randomGraph(rng: Random, n: Int, m: Int): SparkGraph = {
    val pairs = Seq.fill(m)((rng.nextInt(n), rng.nextInt(n))).collect {
      case (u, v) if u != v => (math.min(u, v), math.max(u, v))
    }.distinct.sorted
    SparkGraph.fromCanonical("cut", pairs.map(_._1).toArray, pairs.map(_._2).toArray,
      Array.fill(pairs.length)(1.0), directed = false, weighted = false, n)
  }

  test("the coarse cut keeps the edges of the old levelForTarget rule (300 instances, heavy ties)") {
    val rng = new Random(11)
    val exps = Array(0.0, 0.01, 0.02, 0.021, 0.04, 0.3, math.log(2) / math.log(3), 0.7, 1.0)
    for (i <- 0 until 300) {
      val g = randomGraph(rng, 2 + rng.nextInt(12), rng.nextInt(40))
      val m = g.numEdges.toInt
      // KN: integer ranks are their own levels; LS: exponents on a 0.02 grid
      val (score, level) =
        if (i % 2 == 0) (Array.fill(m)(1.0 + rng.nextInt(4)), (x: Double) => x)
        else (Array.fill(m)(exps(rng.nextInt(exps.length))), (x: Double) => math.ceil(x / 0.02))
      val target = rng.nextInt(m + 3)
      val lvls = score.map(level)
      val sorted = lvls.sorted(Ordering.Double.TotalOrdering)
      val cut = sorted.lift(math.min(target, sorted.length) - 1).getOrElse(0.0)
      val want = EdgeRanking.keepSmallest(g, score, lvls.count(_ <= cut), "ref")
      assert(edges(EdgeRanking.keepCoarse(g, score, level, target, "cut")) === edges(want), s"instance $i")
    }
  }

  test("topKPrecision equals the old boxed sortBy (300 instances, many ties and zeros)") {
    val rng = new Random(12)
    val values = Array(0.0, 0.0, 0.0, 1.0, 2.5, 2.5, -1.0, 1e-300, 7.0)
    def oldTopK(s: Array[Double], k: Int): Set[Int] =
      s.zipWithIndex.sortBy { case (v, i) => (-v, i) }.take(k).map(_._2).toSet
    for (i <- 0 until 300) {
      val n = 1 + rng.nextInt(150)
      val a = Array.fill(n)(values(rng.nextInt(values.length)))
      val b = Array.fill(n)(values(rng.nextInt(values.length)))
      val k = 1 + rng.nextInt(n + 5)
      val want = oldTopK(a, k).intersect(oldTopK(b, k)).size.toDouble / math.min(k, n)
      assert(Centrality.topKPrecision(a, b, k) === want, s"instance $i")
      assert(Centrality.topKPrecision(a, a, k) === 1.0)
    }
  }
}
