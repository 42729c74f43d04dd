package repro.metrics

import scala.util.Random
import repro.SparkSpec
import repro.core.SparkGraph
import repro.graphs.GraphGen

/** The batched `Csr.ShortestPaths` against independent one-source
  * references: every row equals the queue BFS (unweighted, exactly) or
  * Bellman–Ford over the arcs (weighted, to 1e-12 relative) from its
  * source, and `ecc`, `farthest` and `sum` agree with the row, on random
  * graphs with isolated vertices and several components.
  */
class ShortestPathsSpec extends SparkSpec {

  /** Random edges on 0 until n: a few dense blocks (components) and an
    * untouched tail of isolated vertices, weights in [0.5, 3).
    */
  private def randomCsr(rng: Random, n: Int, bothDirections: Boolean): Csr = {
    val blocks = 1 + rng.nextInt(4)
    val used = n - rng.nextInt(n / 4 + 1)
    val size = math.max(2, used / blocks)
    val pairs = Seq.fill(3 * n) {
      val b = rng.nextInt(blocks) * size
      (b + rng.nextInt(size), b + rng.nextInt(size))
    }.filter { case (u, v) => u != v && u < n && v < n }.distinct
    Csr.fromArrays(n, pairs.map(_._1).toArray, pairs.map(_._2).toArray,
      pairs.map(_ => 0.5 + 2.5 * rng.nextDouble()).toArray, bothDirections)
  }

  /** Bellman–Ford over the arcs: relax every arc until nothing changes. */
  private def bellmanFord(c: Csr, s: Int): Array[Double] = {
    val d = Array.fill(c.n)(Double.PositiveInfinity)
    d(s) = 0.0
    var changed = true
    while (changed) {
      changed = false
      for (u <- 0 until c.n if d(u).isFinite; i <- c.offsets(u) until c.offsets(u + 1))
        if (d(u) + c.wts(i) < d(c.nbrs(i))) { d(c.nbrs(i)) = d(u) + c.wts(i); changed = true }
    }
    d
  }

  private def reference(c: Csr, weighted: Boolean, s: Int): Array[Double] =
    if (weighted) bellmanFord(c, s)
    else QueueBfs.distances(c, s).map(d => if (d < 0) Double.PositiveInfinity else d.toDouble)

  /** Equal, or within 1e-12 relative on a weighted graph. */
  private def close(got: Double, want: Double, weighted: Boolean): Boolean =
    got == want || (weighted && want.isFinite && math.abs(got - want) <= 1e-12 * want)

  /** Runs `sources` in batches and checks every row and eccentricity. */
  private def checkBatches(c: Csr, weighted: Boolean, sources: Array[Int]): Unit = {
    val paths = new Csr.ShortestPaths(c, weighted)
    Csr.ShortestPaths.batches(sources.length) { (b, count) =>
      assert(count <= Csr.ShortestPaths.Batch)
      paths.from(sources, b, count)
      (0 until count).foreach { k =>
        val ref = reference(c, weighted, sources(b + k))
        val row = (0 until c.n).map(paths(k, _))
        assert(row.indices.forall(v => close(row(v), ref(v), weighted)), s"row $k of the batch at $b")
        val finite = row.filter(_.isFinite)
        assert(paths.ecc(k) === finite.max)
        val (e, far) = paths.farthest(k)
        assert(e === finite.max && far === row.indexWhere(_ == e))
        assert(paths.sum(k) === finite.sum)
      }
    }
  }

  test("batched rows equal one traversal per source (batch sizes 1, 63, 64, 65)") {
    val rng = new Random(11)
    for (inst <- 0 until 12; total <- Seq(1, 63, 64, 65)) {
      val n = 20 + rng.nextInt(120)
      val c = randomCsr(rng, n, bothDirections = inst % 3 != 0)
      val sources = Array.fill(total)(rng.nextInt(n))
      checkBatches(c, weighted = inst % 2 == 1, sources)
    }
  }

  test("duplicate sources in one batch get equal rows") {
    val rng = new Random(12)
    val c = randomCsr(rng, 90, bothDirections = true)
    val sources = Array.fill(64)(rng.nextInt(10))
    for (weighted <- Seq(false, true)) checkBatches(c, weighted, sources)
  }

  test("an empty batch reads nothing and leaves the next batch exact") {
    val rng = new Random(13)
    val c = randomCsr(rng, 70, bothDirections = true)
    for (weighted <- Seq(false, true)) {
      val paths = new Csr.ShortestPaths(c, weighted)
      val sources = Array.range(0, 70)
      paths.from(sources, 0, 64)
      paths.from(sources, 0, 0)
      intercept[IndexOutOfBoundsException](paths(0, 0))
      paths.from(sources, 5, 3)
      (0 until 3).foreach { k =>
        val ref = reference(c, weighted, 5 + k)
        assert((0 until 70).forall(v => close(paths(k, v), ref(v), weighted)))
      }
    }
  }

  test("a batch holds at most 64 sources") {
    val c = randomCsr(new Random(14), 80, bothDirections = true)
    intercept[IllegalArgumentException](new Csr.ShortestPaths(c, weighted = false).from(Array.range(0, 65), 0, 65))
  }

  /** The Fig 12 pairing: an unweighted original against a weighted
    * sparsified graph, as ER-w produces, so each side picks its own kernel.
    * Pinned on the inputs of `TraversalParitySpec` (its `und` against
    * `wtdSub`); the value is the one the one-source-at-a-time code gave.
    */
  test("SPSP stretch is pinned on an unweighted original and a weighted sparsified graph") {
    val n = 300
    val pairs = (GraphGen.wattsStrogatz(240, 6, 0.3, 5) ++ GraphGen.barabasiAlbert(40, 1, 9, offset = 240)).toSeq.sorted
    def weightOf(u: Int, v: Int): Double = 1.0 + ((7 * u + 3 * v) % 5) / 3.0
    val kept = pairs.zipWithIndex.collect { case (p, i) if i % 4 != 0 => p }
    val und = SparkGraph.fromCanonical("mix-und", pairs.map(_._1).toArray, pairs.map(_._2).toArray,
      Array.fill(pairs.size)(1.0), directed = false, weighted = false, n)
    val wtdSub = SparkGraph.fromCanonical("mix-wtd-sub", kept.map(_._1).toArray, kept.map(_._2).toArray,
      kept.map { case (u, v) => weightOf(u, v) }.toArray, directed = false, weighted = true, n)
    assert(Distances.spspStretch(und, wtdSub, nPairs = 600, seed = 3) ===
      Distances.StretchResult(2.091572822822824, 0.010033444816053512, 598))
  }
}
