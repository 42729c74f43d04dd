package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{Sparsifier, Sparsifiers => S}
import repro.core.sparsifiers.{EffectiveResistance, SimilarityScores}
import repro.graphs.Datasets
import repro.metrics._

/** One reproduced result table (the numbers behind one paper figure/table).
  *
  * @param refValue   the figure's "green line" (ground truth on the full
  *                   graph), when the paper draws one
  * @param baseline   a second reference (e.g. Fig 13's red MLP-only line)
  */
final case class ExpResult(
    title: String,
    rhos: Seq[Double],
    rows: Seq[SweepRow],
    refValue: Option[Double] = None,
    baseline: Option[Double] = None) {
  def render: String = {
    val base = Fmt.sweepTable(title, rows, rhos)
    val refs = refValue.map(v => f"  [ref: full-graph value = ${Fmt.fmtD(v)}]\n").getOrElse("") +
      baseline.map(v => f"  [baseline (no graph) = ${Fmt.fmtD(v)}]\n").getOrElse("")
    base + refs
  }
  /** Mean metric value of a sparsifier across its swept cells. NaN cells
    * (e.g. a max-flow sweep where the sparsifier destroyed ALL sampled
    * flows) are skipped; an all-NaN row means total failure, reported as 0
    * so comparisons against it still favour working sparsifiers.
    */
  def meanOf(sp: Sparsifier): Double = {
    val cs = rows.find(_.sparsifier eq sp).getOrElse(sys.error(s"no row ${sp.abbrev}"))
      .cells.map(_.mean).filterNot(_.isNaN)
    if (cs.isEmpty) 0.0 else cs.sum / cs.size
  }
  /** Value at the largest swept prune rate with a defined measurement. */
  def atMaxRho(sp: Sparsifier): Double = {
    val cs = rows.find(_.sparsifier eq sp).get.cells.filterNot(_.mean.isNaN)
    if (cs.isEmpty) 0.0 else cs.maxBy(_.rho).mean
  }
}

/** The experiments of §4, one function per figure/table group. Shared by
  * the bench suites (reduced ρ grid) and the `jobs/` spark-submit mains
  * (full 0.1…0.9 sweep). Sparsifier subsets per figure follow the paper's
  * own presentation rules (§4: representative subset + always Random).
  */
object Experiments {

  final case class Config(scale: Double = 1.0, rhos: Seq[Double] = Seq(0.1, 0.3, 0.5, 0.7, 0.9), seeds: Int = 2)

  /** Fig 1a/1b: connectivity on ca-AstroPh. */
  def connectivity(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "ca-AstroPh", cfg.scale)
    val sps = Seq(S.random, S.kNeighbor, S.localDegree, S.localSimilarity,
      S.erUnweighted, S.spanningForest, S.tSpanner, S.gSpar, S.scan)
    val Seq(unreach, isolated) = Sweep.runMulti(g, sps, cfg.rhos, cfg.seeds) { (_, h) =>
      Seq(Connectivity.unreachableRatio(h), Connectivity.isolatedRatio(h))
    }
    Seq(
      ExpResult("Fig 1a: sd-pair unreachable ratio (ca-AstroPh)", cfg.rhos, unreach,
        refValue = Some(Connectivity.unreachableRatio(g))),
      ExpResult("Fig 1b: vertex isolated ratio (ca-AstroPh)", cfg.rhos, isolated,
        refValue = Some(Connectivity.isolatedRatio(g))))
  }

  /** Fig 2: degree-distribution Bhattacharyya distance on ogbn-proteins. */
  def degreeDistribution(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "ogbn-proteins", cfg.scale)
    val sps = Seq(S.random, S.localDegree, S.rankDegree, S.kNeighbor, S.forestFire, S.localSimilarity)
    val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((o, h) => DegreeDistribution.distance(o, h))
    Seq(ExpResult("Fig 2: degree distribution Bhattacharyya distance (ogbn-proteins)", cfg.rhos, rows,
      refValue = Some(0.0)))
  }

  /** Fig 3: Laplacian quadratic form ratio on com-Amazon. */
  def quadraticForm(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "com-Amazon", cfg.scale)
    val sps = Seq(S.erWeighted, S.erUnweighted, S.random, S.localDegree, S.gSpar)
    val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((o, h) => QuadraticForm.meanRatio(o, h, nVectors = 100))
    Seq(ExpResult("Fig 3: Laplacian quadratic form ratio (com-Amazon)", cfg.rhos, rows,
      refValue = Some(1.0)))
  }

  /** Fig 4a/4b: SPSP + eccentricity stretch on ca-AstroPh. */
  def distanceStretch(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "ca-AstroPh", cfg.scale)
    val sps = Seq(S.localDegree, S.rankDegree, S.lSpar, S.erUnweighted, S.forestFire,
      S.kNeighbor, S.gSpar, S.scan, S.random, S.spanningForest, S.tSpanner)
    val Seq(spsp, ecc) = Sweep.runMulti(g, sps, cfg.rhos, cfg.seeds) { (o, h) =>
      Seq(Distances.spspStretch(o, h, nPairs = 1500).meanStretch,
        Distances.eccentricityStretch(o, h, nSources = 150).meanStretch)
    }
    Seq(
      ExpResult("Fig 4a: SPSP mean stretch factor (ca-AstroPh)", cfg.rhos, spsp, refValue = Some(1.0)),
      ExpResult("Fig 4b: eccentricity mean stretch factor (ca-AstroPh)", cfg.rhos, ecc, refValue = Some(1.0)))
  }

  /** Fig 4c: diameter on ego-Facebook. */
  def diameter(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "ego-Facebook", cfg.scale)
    val sps = Seq(S.localDegree, S.rankDegree, S.gSpar, S.scan, S.localSimilarity, S.random)
    val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((_, h) => Distances.approxDiameter(h))
    Seq(ExpResult("Fig 4c: approx diameter (ego-Facebook)", cfg.rhos, rows,
      refValue = Some(Distances.approxDiameter(g))))
  }

  /** Fig 5a/5b: betweenness on com-DBLP, closeness on ca-AstroPh. */
  def betweennessCloseness(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val sps = Seq(S.localDegree, S.rankDegree, S.random, S.lSpar, S.gSpar, S.scan, S.forestFire)
    val gb = Datasets.get(spark, "com-DBLP", cfg.scale)
    val bOrig = Centrality.betweenness(gb)
    val bRows = Sweep.run(gb, sps, cfg.rhos, cfg.seeds)((_, h) =>
      Centrality.topKPrecision(bOrig, Centrality.betweenness(h)))
    val gc = Datasets.get(spark, "ca-AstroPh", cfg.scale)
    val cOrig = Centrality.closeness(gc)
    val cRows = Sweep.run(gc, sps, cfg.rhos, cfg.seeds)((_, h) =>
      Centrality.topKPrecision(cOrig, Centrality.closeness(h)))
    Seq(
      ExpResult("Fig 5a: betweenness top-100 precision (com-DBLP)", cfg.rhos, bRows, refValue = Some(1.0)),
      ExpResult("Fig 5b: closeness top-100 precision (ca-AstroPh)", cfg.rhos, cRows, refValue = Some(1.0)))
  }

  /** Fig 6: eigenvector centrality on email-Enron. */
  def eigenvectorCentrality(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "email-Enron", cfg.scale)
    val sps = Seq(S.rankDegree, S.localDegree, S.random, S.forestFire, S.kNeighbor)
    val orig = Centrality.eigenvector(g)
    val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((_, h) =>
      Centrality.topKPrecision(orig, Centrality.eigenvector(h)))
    Seq(ExpResult("Fig 6: eigenvector top-100 precision (email-Enron)", cfg.rhos, rows, refValue = Some(1.0)))
  }

  /** Fig 7: Katz centrality on ego-Twitter (directed). */
  def katzCentrality(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "ego-Twitter", cfg.scale)
    val sps = Seq(S.random, S.kNeighbor, S.erUnweighted, S.localDegree, S.rankDegree, S.forestFire)
    val orig = Centrality.katz(g)
    val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((_, h) =>
      Centrality.topKPrecision(orig, Centrality.katz(h)))
    Seq(ExpResult("Fig 7: Katz top-100 precision (ego-Twitter)", cfg.rhos, rows, refValue = Some(1.0)))
  }

  /** Fig 8: number of Louvain communities on com-DBLP. */
  def communities(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "com-DBLP", cfg.scale)
    val sps = Seq(S.localDegree, S.kNeighbor, S.spanningForest, S.tSpanner, S.gSpar, S.rankDegree, S.random)
    val ref = Louvain.numCommunities(Louvain.cluster(g, 0)).toDouble
    val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((_, h) =>
      Louvain.numCommunities(Louvain.cluster(h, 0)).toDouble)
    Seq(ExpResult("Fig 8: number of communities (com-DBLP)", cfg.rhos, rows, refValue = Some(ref)))
  }

  /** Fig 9a/9b: MCC on com-Amazon, GCC on human_gene2. */
  def clusteringCoefficients(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val sps = Seq(S.localSimilarity, S.scan, S.gSpar, S.random, S.localDegree, S.kNeighbor, S.spanningForest)
    val ga = Datasets.get(spark, "com-Amazon", cfg.scale)
    val mccRows = Sweep.run(ga, sps, cfg.rhos, cfg.seeds)((_, h) => ClusteringCoeffs.mcc(h))
    val gg = Datasets.get(spark, "human_gene2", cfg.scale)
    val gccRows = Sweep.run(gg, sps, cfg.rhos, cfg.seeds)((_, h) => ClusteringCoeffs.gcc(h))
    Seq(
      ExpResult("Fig 9a: mean clustering coefficient (com-Amazon)", cfg.rhos, mccRows,
        refValue = Some(ClusteringCoeffs.mcc(ga))),
      ExpResult("Fig 9b: global clustering coefficient (human_gene2)", cfg.rhos, gccRows,
        refValue = Some(ClusteringCoeffs.gcc(gg))))
  }

  /** Fig 10: clustering F1 similarity on ca-HepPh. */
  def clusteringF1(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "ca-HepPh", cfg.scale)
    val sps = Seq(S.erUnweighted, S.erWeighted, S.kNeighbor, S.localDegree, S.lSpar,
      S.localSimilarity, S.scan, S.gSpar, S.random)
    // green line: F1 of two independent Louvain runs on the original graph
    val ref = ClusterF1.f1(Louvain.cluster(g, 1), Louvain.cluster(g, 2))
    val orig = Louvain.cluster(g, 0)
    val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((_, h) => ClusterF1.f1(Louvain.cluster(h, 1), orig))
    Seq(ExpResult("Fig 10: clustering F1 similarity (ca-HepPh)", cfg.rhos, rows, refValue = Some(ref)))
  }

  /** Fig 11a/11b: PageRank top-100 precision on web-Google and ego-Facebook. */
  def pageRank(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val sps = Seq(S.erUnweighted, S.erWeighted, S.kNeighbor, S.random, S.gSpar, S.scan, S.localDegree, S.rankDegree)
    def exp(dataset: String, tag: String): ExpResult = {
      val g = Datasets.get(spark, dataset, cfg.scale)
      // 12 power iterations: top-100 ranking is stable well before full
      // convergence.
      val iters = 12
      val orig = Centrality.pagerank(g, iters)
      val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((_, h) =>
        Centrality.topKPrecision(orig, Centrality.pagerank(h, iters)))
      ExpResult(s"Fig $tag: PageRank top-100 precision ($dataset)", cfg.rhos, rows, refValue = Some(1.0))
    }
    Seq(exp("web-Google", "11a"), exp("ego-Facebook", "11b"))
  }

  /** Fig 12: min-cut/max-flow mean stretch on ca-HepPh. */
  def maxFlow(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val g = Datasets.get(spark, "ca-HepPh", cfg.scale)
    val sps = Seq(S.erWeighted, S.erUnweighted, S.kNeighbor, S.forestFire, S.gSpar, S.scan, S.random)
    val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((o, h) =>
      MaxFlow.flowStretch(o, h, nPairs = 120).meanStretch)
    Seq(ExpResult("Fig 12: min-cut/max-flow mean stretch (ca-HepPh)", cfg.rhos, rows, refValue = Some(1.0)))
  }

  /** Fig 13a/13b: GNNs — SAGE-like on ogbn-proteins (AUROC), ClusterGCN-like
    * on Reddit (accuracy). Green line = full-graph training; red = MLP-only.
    */
  def gnn(spark: SparkSession, cfg: Config): Seq[ExpResult] = {
    val sps = Seq(S.random, S.localSimilarity, S.gSpar, S.scan, S.localDegree, S.rankDegree)
    def exp(dataset: String, model: Gnn.Model, tag: String, useAuroc: Boolean): ExpResult = {
      val data = Datasets.gnn(spark, dataset, cfg.scale)
      val g = data.graph
      def score(r: Gnn.GnnResult) = if (useAuroc) r.auroc else r.accuracy
      val test = Gnn.testFeatures(model, data)
      val full = score(Gnn.run(model, g, data, test))
      val mlp = score(Gnn.run(Gnn.MlpOnly, g, data, Gnn.testFeatures(Gnn.MlpOnly, data)))
      val rows = Sweep.run(g, sps, cfg.rhos, cfg.seeds)((_, h) => score(Gnn.run(model, h, data, test)))
      val metricName = if (useAuroc) "AUROC" else "accuracy"
      ExpResult(s"Fig $tag: ${model.getClass.getSimpleName.stripSuffix("$")} $metricName ($dataset)",
        cfg.rhos, rows, refValue = Some(full), baseline = Some(mlp))
    }
    Seq(
      exp("ogbn-proteins", Gnn.SageLike, "13a", useAuroc = true),
      exp("Reddit", Gnn.ClusterGcnLike, "13b", useAuroc = false))
  }

  /** Fig 14: sparsification wall-clock time on ogbn-proteins. */
  def timing(spark: SparkSession, cfg: Config): ExpResult = {
    val g = Datasets.get(spark, "ogbn-proteins", cfg.scale)
    // §4.6: "the time for ER is only for sampling. We do not include the
    // computation time of the effective resistance because it is a one-time
    // cost" — warm the caches so timings match that accounting (TimingBench
    // measures the one-time costs separately).
    EffectiveResistance.resistances(g, EffectiveResistance.MaxDenseN)
    SimilarityScores.forGraph(g)
    val sps = S.all
    val rows = sps.map { sp =>
      val cells = Sweep.targetRhos(sp, cfg.rhos).map { rho =>
        val t0 = System.nanoTime()
        val h = sp(g, rho, seed = 7)
        val ms = (System.nanoTime() - t0) / 1e6
        Cell(rho, 1.0 - h.numEdges.toDouble / g.numEdges, ms, 0.0, 1)
      }
      SweepRow(sp, cells)
    }
    ExpResult("Fig 14: sparsification time, ms (ogbn-proteins)", cfg.rhos, rows)
  }
}
