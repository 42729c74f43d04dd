package repro.bench

import repro.core.{Sparsifiers => S}
import repro.harness.Experiments

/** Figs 5a/5b/6/7: centrality top-100 precision — betweenness (com-DBLP),
  * closeness (ca-AstroPh), eigenvector (email-Enron), Katz (ego-Twitter).
  */
class CentralityBench extends BenchBase {
  private lazy val bc = Experiments.results(spark, "5", cfg)
  private lazy val ev = Experiments.results(spark, "6", cfg).head
  private lazy val kz = Experiments.results(spark, "7", cfg).head

  test("Fig 5a/5b: produce betweenness and closeness tables") {
    show(bc)
    assert(bc.size === 2)
  }

  test("Fig 5a shape: LD, RD and Random beat G-Spar/SCAN on betweenness") {
    val b = bc(0)
    for (good <- Seq(S.localDegree, S.rankDegree, S.random); bad <- Seq(S.gSpar, S.scan))
      assert(b.meanOf(good) > b.meanOf(bad), s"${good.abbrev} should beat ${bad.abbrev}")
  }

  test("Fig 5b shape: LD, RD and Random beat G-Spar/SCAN on closeness") {
    val c = bc(1)
    for (good <- Seq(S.localDegree, S.rankDegree, S.random); bad <- Seq(S.gSpar, S.scan))
      assert(c.meanOf(good) > c.meanOf(bad), s"${good.abbrev} should beat ${bad.abbrev}")
  }

  test("Fig 6: produce the eigenvector table") {
    println(ev.render)
    assert(ev.rows.size === 5)
  }

  test("Fig 6 shape: Rank Degree and Random preserve eigenvector ranking well") {
    assert(ev.meanOf(S.rankDegree) > ev.meanOf(S.forestFire))
    assert(ev.meanOf(S.random) > ev.meanOf(S.forestFire))
  }

  test("Fig 7: produce the Katz table") {
    println(kz.render)
    assert(kz.rows.size === 6)
  }

  test("Fig 7 shape: Random and K-Neighbor preserve Katz ranking well; ER-u trails") {
    // The paper notes Katz orderings fluctuate per graph (attenuation factor
    // α is graph-dependent, §4.3); the robust claims are that the unbiased
    // samplers stay strong. On our ego-Twitter substitute Forest Fire also
    // scores high — recorded as a dataset-substitution deviation in
    // EXPERIMENTS.md.
    assert(kz.meanOf(S.random) > 0.75, s"Random Katz precision ${kz.meanOf(S.random)}")
    assert(kz.meanOf(S.kNeighbor) > 0.75)
    assert(kz.meanOf(S.random) > kz.meanOf(S.erUnweighted))
  }

  test("centrality precisions live in [0, 1]") {
    (bc ++ Seq(ev, kz)).foreach(_.rows.foreach(_.cells.foreach(c =>
      assert(c.mean >= 0.0 && c.mean <= 1.0))))
  }
}
