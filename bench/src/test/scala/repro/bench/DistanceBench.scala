package repro.bench

import repro.core.{Sparsifiers => S}
import repro.harness.Experiments

/** Fig 4a/4b/4c: distance metrics — SPSP stretch, eccentricity stretch
  * (ca-AstroPh) and approximate diameter (ego-Facebook).
  */
class DistanceBench extends BenchBase {
  private lazy val stretch = Experiments.results(spark, "4ab", cfg)
  private lazy val diam = Experiments.results(spark, "4c", cfg).head

  test("Fig 4a/4b: produce stretch tables") {
    show(stretch)
    assert(stretch.size === 2)
  }

  test("Fig 4a shape: Local Degree and Rank Degree preserve distances best") {
    val spsp = stretch(0)
    for (best <- Seq(S.localDegree, S.rankDegree)) {
      assert(dist(spsp, best, 1.0) < dist(spsp, S.spanningForest, 1.0),
        s"${best.abbrev} should beat SF")
      assert(dist(spsp, best, 1.0) <= dist(spsp, S.random, 1.0) + 0.05,
        s"${best.abbrev} should be at least as good as Random")
    }
  }

  test("Fig 4a shape: Spanning Forest has a high stretch factor") {
    assert(stretch(0).meanOf(S.spanningForest) > 1.5)
  }

  test("Fig 4a guarantee: t-Spanner stretch stays below t = 3") {
    assert(stretch(0).meanOf(S.tSpanner) <= 3.0 + 1e-9)
  }

  test("Fig 4b shape: LD/RD keep eccentricity close to 1") {
    val ecc = stretch(1)
    assert(dist(ecc, S.localDegree, 1.0) < dist(ecc, S.spanningForest, 1.0))
    assert(dist(ecc, S.rankDegree, 1.0) < dist(ecc, S.spanningForest, 1.0))
  }

  test("Fig 4c: produce the diameter table") {
    println(diam.render)
    assert(diam.refValue.exists(_ > 0))
  }

  test("Fig 4c shape: Local Degree tracks the true diameter at low prune rates") {
    val ref = diam.refValue.get
    val ldLow = diam.rows.find(_.sparsifier eq S.localDegree).get.cells
      .filter(_.rho <= 0.5).map(_.mean)
    ldLow.foreach(d => assert(math.abs(d - ref) <= ref, s"LD diameter $d vs ref $ref"))
  }
}
