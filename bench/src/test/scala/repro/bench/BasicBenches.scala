package repro.bench

import repro.core.{Sparsifiers => S}
import repro.harness.Experiments

/** Fig 1a/1b: graph connectivity under sparsification (ca-AstroPh). */
class ConnectivityBench extends BenchBase {
  private lazy val res = Experiments.results(spark, "1", cfg)

  test("Fig 1: produce connectivity tables") {
    show(res)
    assert(res.size === 2)
  }

  test("Fig 1a shape: K-Neighbor preserves reachability far better than G-Spar/SCAN") {
    val unreach = res(0)
    assert(unreach.meanOf(S.kNeighbor) < unreach.meanOf(S.gSpar))
    assert(unreach.meanOf(S.kNeighbor) < unreach.meanOf(S.scan))
  }

  test("Fig 1a shape: Spanning Forest and t-Spanner keep connectivity identical to the original") {
    val unreach = res(0)
    val ref = unreach.refValue.get
    assert(math.abs(unreach.meanOf(S.spanningForest) - ref) < 1e-9)
    assert(math.abs(unreach.meanOf(S.tSpanner) - ref) < 1e-9)
  }

  test("Fig 1a shape: Random is worse than the local sparsifiers") {
    val unreach = res(0)
    assert(unreach.atMaxRho(S.random) > unreach.atMaxRho(S.localDegree))
  }

  test("Fig 1b shape: local sparsifiers isolate no vertices; global similarity ones do") {
    val iso = res(1)
    // K-Neighbor guarantees ≥1 edge per vertex at every prune rate; Local
    // Degree up to its elbow (ρ=0.9 leaves fewer edges than vertices — the
    // sharp drop the paper calls out in §4.7).
    assert(iso.meanOf(S.kNeighbor) <= iso.refValue.get + 1e-9)
    val ldBelowElbow = iso.rows.find(_.sparsifier eq S.localDegree).get.cells.filter(_.rho <= 0.7)
    ldBelowElbow.foreach(c => assert(c.mean <= iso.refValue.get + 1e-9))
    assert(iso.atMaxRho(S.gSpar) > iso.refValue.get)
  }
}

/** Fig 2: degree-distribution preservation (ogbn-proteins). */
class DegreeDistBench extends BenchBase {
  private lazy val res = Experiments.results(spark, "2", cfg).head

  test("Fig 2: produce the degree-distribution table") {
    println(res.render)
    assert(res.rows.size === 6)
  }

  test("Fig 2 shape: Random preserves the degree distribution best") {
    val others = res.rows.map(_.sparsifier).filterNot(_ eq S.random)
    others.foreach(sp => assert(res.meanOf(S.random) < res.meanOf(sp),
      s"Random should beat ${sp.abbrev}"))
  }

  test("Fig 2 shape: degree-biased sparsifiers (LD, RD, KN) underperform") {
    for (sp <- Seq(S.localDegree, S.rankDegree, S.kNeighbor))
      assert(res.meanOf(sp) > 1.5 * res.meanOf(S.random), s"${sp.abbrev} suspiciously good")
  }
}

/** Fig 3: Laplacian quadratic form (com-Amazon). */
class QuadraticFormBench extends BenchBase {
  private lazy val res = Experiments.results(spark, "3", cfg).head

  test("Fig 3: produce the quadratic-form table") {
    println(res.render)
    assert(res.rows.size === 5)
  }

  test("Fig 3 shape: ER-weighted is the clear winner (ratio ≈ 1)") {
    assert(dist(res, S.erWeighted, 1.0) < 0.15, s"ER-w ratio ${res.meanOf(S.erWeighted)}")
    for (sp <- Seq(S.erUnweighted, S.random, S.localDegree, S.gSpar))
      assert(dist(res, S.erWeighted, 1.0) < dist(res, sp, 1.0),
        s"ER-w should beat ${sp.abbrev}")
  }

  test("Fig 3 shape: ER-unweighted behaves like Random (no QF preservation)") {
    assert(math.abs(res.meanOf(S.erUnweighted) - res.meanOf(S.random)) < 0.25)
  }
}
