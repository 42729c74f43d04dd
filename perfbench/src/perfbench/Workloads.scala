package perfbench

import scala.collection.mutable
import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier, Sparsifiers => S}
import repro.harness.SweepRow
import repro.metrics.{Distances, QuadraticForm}

/** Per-cell bookkeeping shared by the sparsifier wrappers and the metric
  * closure of one sweep: when each cell started, how long it took, and
  * which cells failed.
  */
final class CellLog {
  private var startNs = 0L
  private var sparsifyFailed = false
  val seconds = mutable.ArrayBuffer.empty[Double]
  var attempted = 0
  var failed = 0

  def start(): Unit = { startNs = System.nanoTime(); sparsifyFailed = false; attempted += 1 }
  def markSparsifyFailed(): Unit = sparsifyFailed = true
  def sparsifyOk: Boolean = !sparsifyFailed

  /** Close the cell: it fails if sparsify threw or any metric is NaN. */
  def finish(values: Seq[Double]): Unit = {
    seconds += (System.nanoTime() - startNs) / 1e9
    if (sparsifyFailed || values.exists(_.isNaN)) failed += 1
  }
}

/** Delegating sparsifier: the same algorithm and Table 2 metadata, with the
  * call to `sparsify` inside `Sweep` marked as a cell start and a span. A
  * throw is logged and the input graph handed back, so one broken cell
  * fails alone instead of ending the sweep.
  */
final class Timed(inner: Sparsifier, log: CellLog, tracer: Tracer) extends Sparsifier {
  def name: String = inner.name
  def abbrev: String = inner.abbrev
  def supportsDirected: Boolean = inner.supportsDirected
  override def supportsWeighted: Boolean = inner.supportsWeighted
  override def supportsUnconnected: Boolean = inner.supportsUnconnected
  def pruneRateControl: PruneRateControl = inner.pruneRateControl
  override def changesWeights: Boolean = inner.changesWeights
  def deterministic: Boolean = inner.deterministic

  def sparsify(g: SparkGraph, pruneRate: Double, seed: Long): SparkGraph = {
    log.start()
    try tracer.span(s"sparsify.$abbrev")(inner.sparsify(g, pruneRate, seed))
    catch {
      case e: Exception =>
        Console.err.println(s"[perfbench] $abbrev at rho=$pruneRate threw: $e")
        log.markSparsifyFailed()
        g
    }
  }
}

/** One cell of a sweep table: achieved ρ and one value per metric. */
final case class CellValue(achieved: Double, values: Seq[Double])

/** A sweep's results keyed by (sparsifier abbreviation, target ρ). */
final case class Table(metricNames: Seq[String], cells: Map[(String, Double), CellValue]) {

  /** Mean of metric `k` over a sparsifier's cells, skipping NaN (as
    * `ExpResult.meanOf` does for the bench suites).
    */
  def meanOf(abbrev: String, k: Int): Double = {
    val vs = cells.collect { case ((a, _), c) if a == abbrev => c.values(k) }.filterNot(_.isNaN)
    if (vs.isEmpty) Double.NaN else vs.sum / vs.size
  }

  def distFrom(abbrev: String, k: Int, target: Double): Double = math.abs(meanOf(abbrev, k) - target)
}

object Table {
  def fromRows(metricNames: Seq[String], rows: Seq[Seq[SweepRow]]): Table = {
    val byCell = mutable.LinkedHashMap.empty[(String, Double), CellValue]
    rows.head.zipWithIndex.foreach { case (row, i) =>
      row.cells.zipWithIndex.foreach { case (c, j) =>
        byCell((row.sparsifier.abbrev, c.rho)) = CellValue(c.achievedRho, rows.map(_(i).cells(j).mean))
      }
    }
    Table(metricNames, byCell.toMap)
  }
}

/** A metric evaluated on every sparsified graph. `seed` is the workload
  * seed, passed to every seed parameter of the metric call.
  */
final case class MetricSpec(name: String, eval: (SparkGraph, SparkGraph, Long) => Double)

/** One figure sweep, built only from the program's public calls.
  *
  * @param shape the figure's shape predicates; returns the failures
  */
final case class Workload(
    name: String,
    dataset: String,
    scale: Double,
    sparsifiers: Seq[Sparsifier],
    rhos: Seq[Double],
    metrics: Seq[MetricSpec],
    shape: Table => Seq[String]) {

  def metricNames: Seq[String] = metrics.map(_.name)

  def usesSimilarity: Boolean =
    sparsifiers.exists(sp => Workloads.SimilarityUsers.contains(sp.abbrev))
  def usesEr: Boolean = sparsifiers.exists(_.abbrev.startsWith("ER-"))
}

object Workloads {

  /** Sparsifiers that read `SimilarityScores` (the Jaccard/SCAN joins). */
  val SimilarityUsers: Set[String] = Set("GS", "SCAN", "LS", "LSim")

  private def below(t: Table, k: Int, better: String, worse: String, what: String): Option[String] =
    if (t.distFrom(better, k, 1.0) < t.distFrom(worse, k, 1.0)) None
    else Some(f"$what: $better (${t.meanOf(better, k)}%.4f) is not closer to 1 than $worse (${t.meanOf(worse, k)}%.4f)")

  /** Fig 4a/4b: SPSP and eccentricity stretch on ca-AstroPh. The cells
    * re-run each lazy sparsified plan for every CSR a metric builds, and the
    * BFS work is small: sparsify and materialization dominate.
    */
  val distance: Workload = Workload(
    name = "distance-sweep",
    dataset = "ca-AstroPh", scale = 1.0,
    sparsifiers = Seq(S.localDegree, S.rankDegree, S.spanningForest),
    rhos = Seq(0.5),
    metrics = Seq(
      MetricSpec("spsp_stretch", (o, h, seed) => Distances.spspStretch(o, h, nPairs = 1500, seed = seed).meanStretch),
      MetricSpec("ecc_stretch", (o, h, seed) => Distances.eccentricityStretch(o, h, nSources = 150, seed = seed).meanStretch)),
    shape = t => {
      val pairs = for (k <- 0 to 1; good <- Seq("LD", "RD"))
        yield below(t, k, good, "SF", s"Fig 4 ${t.metricNames(k)}")
      val forest =
        if (t.meanOf("SF", 0) > 1.5) None
        else Some(s"Fig 4a: SF stretch ${t.meanOf("SF", 0)} is not above 1.5")
      (pairs :+ forest).flatten
    })

  /** Fig 3: Laplacian quadratic-form ratio on com-Amazon. The dense ER
    * inverse dominates and the metric is a cheap driver loop.
    */
  val spectral: Workload = Workload(
    name = "spectral-sweep",
    dataset = "com-Amazon", scale = 0.6,
    sparsifiers = Seq(S.erWeighted, S.erUnweighted, S.random),
    rhos = Seq(0.5),
    metrics = Seq(
      MetricSpec("quadform", (o, h, seed) => QuadraticForm.meanRatio(o, h, nVectors = 100, seed = seed))),
    shape = t => {
      val near =
        if (t.distFrom("ER-w", 0, 1.0) < 0.15) None
        else Some(s"Fig 3: ER-w ratio ${t.meanOf("ER-w", 0)} is not within 0.15 of 1")
      near.toSeq ++ Seq("ER-u", "RN").flatMap(o => below(t, 0, "ER-w", o, "Fig 3 quadform"))
    })

  val all: Seq[Workload] = Seq(distance, spectral)

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new NoSuchElementException(
      s"no workload '$n' (have ${all.map(_.name).mkString(", ")})"))

  /** Achieved-ρ bounds of `SparsifierInvariantSpec`, by prune-rate control. */
  def rhoMiss(sp: Sparsifier, target: Double, achieved: Double): Option[String] = {
    val tol = sp.pruneRateControl match {
      case PruneRateControl.Fine      => Some(0.05)
      case PruneRateControl.Coarse    => Some(0.35)
      case PruneRateControl.NoControl => None
    }
    tol.filter(t => !(math.abs(achieved - target) < t))
      .map(t => f"${sp.abbrev} at rho=$target achieved $achieved%.4f (bound $t)")
  }

  /** Metric closure for `Sweep.runMulti`. The traced run first collects the
    * sparsified graph once from outside (the materialization probe).
    */
  def cellMetric(metrics: Seq[MetricSpec], seed: Long, log: CellLog, tracer: Tracer, probe: Boolean)
      : (SparkGraph, SparkGraph) => Seq[Double] = (o, h) => {
    val values =
      if (!log.sparsifyOk) metrics.map(_ => Double.NaN)
      else {
        if (probe) tracer.span("materialize.collect")(GraphOps.collectEdges(h))
        metrics.map { m =>
          try tracer.span(s"metric.${m.name}")(m.eval(o, h, seed))
          catch {
            case e: Exception =>
              Console.err.println(s"[perfbench] metric ${m.name} threw: $e")
              Double.NaN
          }
        }
      }
    log.finish(values)
    values
  }
}
