package repro.bench

import repro.core.{Sparsifiers => S}
import repro.harness.Experiments

/** Fig 11a/11b: PageRank top-100 precision on web-Google (directed) and
  * ego-Facebook (undirected), 12 driver power iterations per graph.
  */
class PageRankBench extends BenchBase {
  // A 3-point grid shows the shape; EXPERIMENTS.md's Fig 11 numbers are
  // recorded on it.
  private lazy val res = Experiments.results(spark, "11", cfg.copy(rhos = Seq(0.1, 0.5, 0.9)))

  test("Fig 11: produce PageRank tables for a directed and an undirected graph") {
    show(res)
    assert(res.size === 2)
  }

  test("Fig 11b shape: G-Spar and SCAN fail to preserve PageRank on the undirected graph") {
    // On the directed web substitute GS/SCAN keep hub in-links (Jaccard over
    // out-neighbourhoods concentrates on hubs) and so do NOT collapse as on
    // real web graphs — recorded as a substitution deviation in
    // EXPERIMENTS.md. The undirected ego-Facebook shape reproduces.
    val fb = res(1)
    for (good <- Seq(S.rankDegree, S.localDegree)) {
      assert(fb.meanOf(good) > fb.meanOf(S.gSpar), s"${good.abbrev} should beat GS")
      assert(fb.meanOf(good) > fb.meanOf(S.scan), s"${good.abbrev} should beat SCAN")
    }
  }

  test("Fig 11a shape: Rank Degree is the most stable on the directed web graph") {
    val web = res(0)
    val rdDrop = web.rows.find(_.sparsifier eq S.rankDegree).get.cells
      .sortBy(_.rho).map(_.mean)
    // RD's precision declines most slowly across the sweep
    assert(rdDrop.head - rdDrop.last < 0.15, s"RD decline ${rdDrop.mkString(",")}")
    assert(web.atMaxRho(S.rankDegree) >= web.atMaxRho(S.random))
  }

  test("Fig 11b shape: Rank Degree performs at the top on the undirected graph") {
    val fb = res(1)
    assert(fb.meanOf(S.rankDegree) > fb.meanOf(S.gSpar))
    assert(fb.meanOf(S.rankDegree) >= fb.meanOf(S.localDegree) - 0.1)
  }

  test("Fig 11: precisions live in [0, 1]") {
    res.foreach(_.rows.foreach(_.cells.foreach(c => assert(c.mean >= 0 && c.mean <= 1))))
  }
}

/** Fig 12: min-cut/max-flow stretch on ca-HepPh. */
class MaxFlowBench extends BenchBase {
  private lazy val res = Experiments.results(spark, "12", cfg).head

  test("Fig 12: produce the max-flow stretch table") {
    println(res.render)
    assert(res.rows.size === 7)
  }

  test("Fig 12 shape: ER-weighted preserves flow best") {
    for (sp <- Seq(S.random, S.gSpar, S.scan))
      assert(dist(res, S.erWeighted, 1.0) < dist(res, sp, 1.0),
        s"ER-w should beat ${sp.abbrev}")
  }

  test("Fig 12 shape: ER-weighted significantly outperforms ER-unweighted") {
    assert(dist(res, S.erWeighted, 1.0) < dist(res, S.erUnweighted, 1.0))
  }

  test("Fig 12: subgraph flows never exceed the original (stretch ≤ 1 without reweighting)") {
    for (sp <- Seq(S.random, S.gSpar, S.kNeighbor))
      assert(res.meanOf(sp) <= 1.0 + 1e-9)
  }
}

/** Fig 13a/13b: GNN quality — SAGE-like on ogbn-proteins (AUROC),
  * ClusterGCN-like on Reddit (accuracy). Train on sparsified, test on full.
  */
class GnnBench extends BenchBase {
  private lazy val res = Experiments.results(spark, "13", cfg)

  test("Fig 13: produce both GNN tables") {
    show(res)
    assert(res.size === 2)
  }

  test("Fig 13: full-graph reference beats the MLP-only baseline") {
    res.foreach(r => assert(r.refValue.get > r.baseline.get,
      s"graph should help in ${r.title}"))
  }

  test("Fig 13a shape: Random stays close to the full-graph AUROC") {
    val sage = res(0)
    assert(sage.meanOf(S.random) > sage.baseline.get,
      "Random-sparsified training should beat MLP-only")
    assert(sage.refValue.get - sage.meanOf(S.random) < 0.15)
  }

  test("Fig 13b shape: G-Spar and SCAN hold up on ClusterGCN") {
    val cgcn = res(1)
    for (sp <- Seq(S.gSpar, S.scan))
      assert(cgcn.meanOf(sp) > cgcn.baseline.get - 0.05,
        s"${sp.abbrev} should be no worse than featureless training")
  }

  test("Fig 13: all scores are valid probabilities/rates") {
    res.foreach(_.rows.foreach(_.cells.foreach(c => assert(c.mean >= 0 && c.mean <= 1))))
  }
}

/** Fig 14: sparsification wall-clock time on ogbn-proteins. */
class TimingBench extends BenchBase {
  private lazy val res = Experiments.results(spark, "14", cfg).head

  test("Fig 14: produce the timing table (all 13 sparsifier variants)") {
    println(res.render)
    assert(res.rows.size === 13)
  }

  test("Fig 14: every measurement is positive") {
    res.rows.foreach(_.cells.foreach(c => assert(c.mean > 0)))
  }

  test("Fig 14: ER's one-time resistance computation dominates (paper: 990 s on the real graph)") {
    val g = repro.graphs.Datasets.get(spark, "ogbn-proteins", cfg.scale)
    repro.core.sparsifiers.EffectiveResistance.clearCache()
    val t0 = System.nanoTime()
    repro.core.sparsifiers.EffectiveResistance.resistances(g, repro.core.sparsifiers.EffectiveResistance.MaxDenseN)
    val erMs = (System.nanoTime() - t0) / 1e6
    println(f"\n== Fig 14 note: ER one-time resistance computation = $erMs%.0f ms ==")
    val rnMs = res.rows.find(_.sparsifier eq S.random).get.cells.map(_.mean).min
    assert(erMs > rnMs, "ER precomputation should dwarf a Random run")
  }
}
