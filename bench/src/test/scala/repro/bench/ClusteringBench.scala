package repro.bench

import repro.core.{Sparsifiers => S}
import repro.harness.Experiments

/** Figs 8/9/10: clustering metrics — #communities (com-DBLP), MCC
  * (com-Amazon), GCC (human_gene2), clustering F1 (ca-HepPh).
  */
class ClusteringBench extends BenchBase {
  private lazy val comm = Experiments.results(spark, "8", cfg).head
  private lazy val coeffs = Experiments.results(spark, "9", cfg)
  private lazy val f1 = Experiments.results(spark, "10", cfg).head

  test("Fig 8: produce the #communities table") {
    println(comm.render)
    assert(comm.refValue.exists(_ > 1))
  }

  test("Fig 8 shape: community count rises with pruning") {
    val rn = comm.rows.find(_.sparsifier eq S.random).get.cells.sortBy(_.rho)
    assert(rn.last.mean > rn.head.mean)
  }

  test("Fig 8 shape: connectivity-preserving sparsifiers stay closest to the truth") {
    val ref = comm.refValue.get
    for (good <- Seq(S.localDegree, S.kNeighbor))
      assert(math.abs(comm.atMaxRho(good) - ref) < math.abs(comm.atMaxRho(S.random) - ref),
        s"${good.abbrev} should track #communities better than Random")
  }

  test("Fig 9: produce MCC and GCC tables") {
    show(coeffs)
    assert(coeffs.size === 2)
  }

  test("Fig 9 shape: clustering coefficients decay with pruning for Random") {
    for (r <- coeffs) {
      val cells = r.rows.find(_.sparsifier eq S.random).get.cells.sortBy(_.rho)
      assert(cells.last.mean < cells.head.mean)
      assert(cells.head.mean < r.refValue.get + 1e-9)
    }
  }

  test("Fig 9 shape: Spanning Forest has MCC 0 (no triangles in a forest)") {
    assert(coeffs(0).meanOf(S.spanningForest) === 0.0)
  }

  test("Fig 10: produce the clustering-F1 table") {
    println(f1.render)
    assert(f1.refValue.exists(_ > 0.3))
  }

  test("Fig 10 shape: local-structure sparsifiers beat G-Spar/SCAN on F1") {
    val locals = Seq(S.kNeighbor, S.localDegree, S.localSimilarity)
    val bestLocal = locals.map(f1.meanOf).max
    assert(bestLocal > f1.meanOf(S.gSpar), "locals should beat G-Spar")
    assert(bestLocal > f1.meanOf(S.scan), "locals should beat SCAN")
  }

  test("Fig 10 shape: F1 decreases as the prune rate increases (Random)") {
    val cells = f1.rows.find(_.sparsifier eq S.random).get.cells.sortBy(_.rho)
    assert(cells.last.mean < cells.head.mean + 0.05)
  }
}
