package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{SparkGraph, Sparsifier, Sparsifiers => S}
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
    val cs = row(sp).cells.map(_.mean).filterNot(_.isNaN)
    if (cs.isEmpty) 0.0 else cs.sum / cs.size
  }
  /** Value at the largest swept prune rate with a defined measurement. */
  def atMaxRho(sp: Sparsifier): Double = {
    val cs = row(sp).cells.filterNot(_.mean.isNaN)
    if (cs.isEmpty) 0.0 else cs.maxBy(_.rho).mean
  }
  private def row(sp: Sparsifier): SweepRow =
    rows.find(_.sparsifier eq sp).getOrElse(throw new NoSuchElementException(s"no row ${sp.abbrev} in '$title'"))
}

/** What a panel's metric computes once on the original graph: the score of
  * each sparsified graph, the reference line and the optional baseline (see
  * [[ExpResult]]).
  */
final case class Scorer(score: SparkGraph => Double, refValue: Option[Double], baseline: Option[Double] = None)

/** One table of a figure. `metric` runs once on the original graph of
  * `dataset` and returns the scorer for every cell of the sweep.
  */
final case class Panel(title: String, dataset: String, metric: SparkGraph => Scorer)

/** One paper figure: every panel sweeps the same sparsifiers. */
final case class Figure(id: String, sparsifiers: Seq[Sparsifier], panels: Seq[Panel])

/** The experiments of §4 as data: one [[Figure]] per figure or figure group,
  * all run by [[run]]. Shared by the bench suites (reduced ρ grid) and
  * `jobs.FigureJob` (full 0.1…0.9 sweep). Sparsifier subsets per figure
  * follow the paper's own presentation rules (§4: representative subset +
  * always Random). Fig 14 is [[timing]], as its cells time `sparsify` itself
  * rather than score the graph it returns.
  */
object Experiments {

  final case class Config(scale: Double = 1.0, rhos: Seq[Double] = Seq(0.1, 0.3, 0.5, 0.7, 0.9), seeds: Int = 2) {
    require(seeds >= 1, s"seeds must be at least 1, got $seeds")
    Datasets.requireScale(scale)
  }

  /** A metric whose reference line is its own value on the full graph. */
  private def onGraph(metric: SparkGraph => Double): SparkGraph => Scorer =
    g => Scorer(metric, Some(metric(g)))

  /** A metric of (original, sparsified) with a fixed reference line. */
  private def against(ref: Double)(metric: (SparkGraph, SparkGraph) => Double): SparkGraph => Scorer =
    g => Scorer(metric(g, _), Some(ref))

  /** Top-100 precision of a centrality ranking against the original one. */
  private def topK(centrality: SparkGraph => Array[Double]): SparkGraph => Scorer = { g =>
    val orig = centrality(g)
    Scorer(h => Centrality.topKPrecision(orig, centrality(h)), Some(1.0))
  }

  /** Fig 13: train `model` on the sparsified graph and test on the full one.
    * Green line = full-graph training; red = MLP-only.
    */
  private def gnn(tag: String, dataset: String, model: Gnn.Model, useAuroc: Boolean): Panel = {
    def score(r: Gnn.GnnResult) = if (useAuroc) r.auroc else r.accuracy
    val metricName = if (useAuroc) "AUROC" else "accuracy"
    Panel(s"Fig $tag: ${model.getClass.getSimpleName.stripSuffix("$")} $metricName ($dataset)", dataset, { g =>
      val data = Datasets.gnn(dataset, g)
      val test = Gnn.testFeatures(model, data)
      val full = score(Gnn.run(model, g, data, test))
      val mlp = score(Gnn.run(Gnn.MlpOnly, g, data, Gnn.testFeatures(Gnn.MlpOnly, data)))
      Scorer(h => score(Gnn.run(model, h, data, test)), Some(full), Some(mlp))
    })
  }

  /** Every figure but Fig 14, in paper order. */
  val figures: Seq[Figure] = Seq(
    Figure("1", Seq(S.random, S.kNeighbor, S.localDegree, S.localSimilarity,
      S.erUnweighted, S.spanningForest, S.tSpanner, S.gSpar, S.scan), Seq(
      Panel("Fig 1a: sd-pair unreachable ratio (ca-AstroPh)", "ca-AstroPh", onGraph(Connectivity.unreachableRatio)),
      Panel("Fig 1b: vertex isolated ratio (ca-AstroPh)", "ca-AstroPh", onGraph(Connectivity.isolatedRatio)))),
    Figure("2", Seq(S.random, S.localDegree, S.rankDegree, S.kNeighbor, S.forestFire, S.localSimilarity), Seq(
      Panel("Fig 2: degree distribution Bhattacharyya distance (ogbn-proteins)", "ogbn-proteins",
        against(0.0)(DegreeDistribution.distance)))),
    Figure("3", Seq(S.erWeighted, S.erUnweighted, S.random, S.localDegree, S.gSpar), Seq(
      Panel("Fig 3: Laplacian quadratic form ratio (com-Amazon)", "com-Amazon",
        g => Scorer(QuadraticForm.ratioTo(g, nVectors = 100), Some(1.0))))),
    Figure("4ab", Seq(S.localDegree, S.rankDegree, S.lSpar, S.erUnweighted, S.forestFire,
      S.kNeighbor, S.gSpar, S.scan, S.random, S.spanningForest, S.tSpanner), Seq(
      Panel("Fig 4a: SPSP mean stretch factor (ca-AstroPh)", "ca-AstroPh",
        against(1.0)(Distances.spspStretch(_, _, nPairs = 1500).meanStretch)),
      Panel("Fig 4b: eccentricity mean stretch factor (ca-AstroPh)", "ca-AstroPh",
        against(1.0)(Distances.eccentricityStretch(_, _, nSources = 150).meanStretch)))),
    Figure("4c", Seq(S.localDegree, S.rankDegree, S.gSpar, S.scan, S.localSimilarity, S.random), Seq(
      Panel("Fig 4c: approx diameter (ego-Facebook)", "ego-Facebook", onGraph(Distances.approxDiameter(_))))),
    Figure("5", Seq(S.localDegree, S.rankDegree, S.random, S.lSpar, S.gSpar, S.scan, S.forestFire), Seq(
      Panel("Fig 5a: betweenness top-100 precision (com-DBLP)", "com-DBLP", topK(Centrality.betweenness(_))),
      Panel("Fig 5b: closeness top-100 precision (ca-AstroPh)", "ca-AstroPh", topK(Centrality.closeness(_))))),
    Figure("6", Seq(S.rankDegree, S.localDegree, S.random, S.forestFire, S.kNeighbor), Seq(
      Panel("Fig 6: eigenvector top-100 precision (email-Enron)", "email-Enron", topK(Centrality.eigenvector(_))))),
    Figure("7", Seq(S.random, S.kNeighbor, S.erUnweighted, S.localDegree, S.rankDegree, S.forestFire), Seq(
      Panel("Fig 7: Katz top-100 precision (ego-Twitter)", "ego-Twitter", topK(Centrality.katz(_))))),
    Figure("8", Seq(S.localDegree, S.kNeighbor, S.spanningForest, S.tSpanner, S.gSpar, S.rankDegree,
      S.random), Seq(
      Panel("Fig 8: number of communities (com-DBLP)", "com-DBLP",
        onGraph(g => Louvain.numCommunities(Louvain.cluster(g, 0)).toDouble)))),
    Figure("9", Seq(S.localSimilarity, S.scan, S.gSpar, S.random, S.localDegree, S.kNeighbor,
      S.spanningForest), Seq(
      Panel("Fig 9a: mean clustering coefficient (com-Amazon)", "com-Amazon", onGraph(ClusteringCoeffs.mcc)),
      Panel("Fig 9b: global clustering coefficient (human_gene2)", "human_gene2", onGraph(ClusteringCoeffs.gcc)))),
    Figure("10", Seq(S.erUnweighted, S.erWeighted, S.kNeighbor, S.localDegree, S.lSpar,
      S.localSimilarity, S.scan, S.gSpar, S.random), Seq(
      Panel("Fig 10: clustering F1 similarity (ca-HepPh)", "ca-HepPh", { g =>
        // green line: F1 of two independent Louvain runs on the original graph
        val ref = ClusterF1.f1(Louvain.cluster(g, 1), Louvain.cluster(g, 2))
        val orig = Louvain.cluster(g, 0)
        Scorer(h => ClusterF1.f1(Louvain.cluster(h, 1), orig), Some(ref))
      }))),
    Figure("11", Seq(S.erUnweighted, S.erWeighted, S.kNeighbor, S.random, S.gSpar, S.scan,
      S.localDegree, S.rankDegree),
      // 12 power iterations: top-100 ranking is stable well before full
      // convergence.
      Seq("11a" -> "web-Google", "11b" -> "ego-Facebook").map { case (tag, dataset) =>
        Panel(s"Fig $tag: PageRank top-100 precision ($dataset)", dataset, topK(Centrality.pagerank(_, 12)))
      }),
    Figure("12", Seq(S.erWeighted, S.erUnweighted, S.kNeighbor, S.forestFire, S.gSpar, S.scan, S.random), Seq(
      Panel("Fig 12: min-cut/max-flow mean stretch (ca-HepPh)", "ca-HepPh",
        against(1.0)(MaxFlow.flowStretch(_, _, nPairs = 120).meanStretch)))),
    Figure("13", Seq(S.random, S.localSimilarity, S.gSpar, S.scan, S.localDegree, S.rankDegree), Seq(
      gnn("13a", "ogbn-proteins", Gnn.SageLike, useAuroc = true),
      gnn("13b", "Reddit", Gnn.ClusterGcnLike, useAuroc = false))))

  /** Every figure id [[results]] takes, in paper order. */
  val ids: Seq[String] = figures.map(_.id) :+ "14"

  /** Fails unless `id` is one of [[ids]], and names them if not. */
  def requireId(id: String): Unit =
    require(ids.contains(id), s"unknown figure id '$id'; valid ids: ${ids.mkString(" ")}")

  /** The tables of the figure with id `id`. */
  def results(spark: SparkSession, id: String, cfg: Config): Seq[ExpResult] = {
    requireId(id)
    if (id == "14") Seq(timing(spark, cfg)) else run(spark, figures.find(_.id == id).get, cfg)
  }

  /** Sweeps `figure` and returns one table per panel, in panel order. Each
    * dataset is swept once for all its panels, so they score the same
    * sparsified graphs.
    */
  def run(spark: SparkSession, figure: Figure, cfg: Config): Seq[ExpResult] = {
    val tables = figure.panels.map(_.dataset).distinct.flatMap { name =>
      val g = Datasets.get(spark, name, cfg.scale)
      val panels = figure.panels.filter(_.dataset == name)
      val scorers = panels.map(_.metric(g))
      val rows = Sweep.runMulti(g, figure.sparsifiers, cfg.rhos, cfg.seeds)((_, h) => scorers.map(_.score(h)))
      panels.indices.map(k =>
        panels(k) -> ExpResult(panels(k).title, cfg.rhos, rows(k), scorers(k).refValue, scorers(k).baseline))
    }.toMap
    figure.panels.map(tables)
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
