package repro.core

/** Granularity of control a sparsifier has over the prune rate (Table 2). */
sealed trait PruneRateControl
object PruneRateControl {
  /** Hits any target prune rate exactly (up to rounding). */
  case object Fine extends PruneRateControl
  /** Indirect / stepped control (e.g. per-vertex k); best-effort alignment. */
  case object Coarse extends PruneRateControl
  /** No control — the algorithm decides the output size (SF, t-Spanner). */
  case object NoControl extends PruneRateControl
}

/** A graph sparsification algorithm f with H = f(G), |Ẽ| ≈ (1−ρ)|E|.
  *
  * Implementations must return a graph over the SAME vertex set whose edge
  * set is a subset of the input's (ER-weighted may change edge weights but
  * not add edges). The metadata fields reproduce the paper's Table 2.
  */
trait Sparsifier {
  /** Full display name, e.g. "Local Degree". */
  def name: String
  /** Paper abbreviation, e.g. "LD". */
  def abbrev: String
  def supportsDirected: Boolean
  def supportsWeighted: Boolean = true
  def supportsUnconnected: Boolean = true
  def pruneRateControl: PruneRateControl
  /** True only for ER-weighted: kept edges may be reweighted. */
  def changesWeights: Boolean = false
  /** True iff the same input graph always yields the same subgraph. */
  def deterministic: Boolean

  /** Sparsify toward prune rate ρ. `seed` drives any randomness. */
  def sparsify(g: SparkGraph, pruneRate: Double, seed: Long): SparkGraph

  /** Framework entry point: symmetrizes directed inputs first when the
    * algorithm only operates on undirected graphs (paper §3.1 step 2).
    */
  final def apply(g: SparkGraph, pruneRate: Double, seed: Long = 0L): SparkGraph = {
    require(pruneRate >= 0.0 && pruneRate < 1.0, s"prune rate $pruneRate out of [0,1)")
    val in = if (g.directed && !supportsDirected) g.symmetrized else g
    sparsify(in, pruneRate, seed)
  }

  /** Target number of edges to keep for prune rate ρ over m edges. */
  protected final def keepCount(m: Long, pruneRate: Double): Int =
    math.max(1L, math.round((1.0 - pruneRate) * m)).toInt
}

/** Registry of all sparsifiers evaluated in the paper (Table 2 order). */
object Sparsifiers {
  import sparsifiers._

  val random: Sparsifier          = new RandomSparsifier
  val kNeighbor: Sparsifier       = new KNeighbor
  val rankDegree: Sparsifier      = new RankDegree
  val localDegree: Sparsifier     = new LocalDegree
  val spanningForest: Sparsifier  = new SpanningForest
  val tSpanner: Sparsifier        = new TSpanner(t = 3)
  val forestFire: Sparsifier      = new ForestFire
  val lSpar: Sparsifier           = new LSpar
  val gSpar: Sparsifier           = new GSpar
  val localSimilarity: Sparsifier = new LocalSimilarity
  val scan: Sparsifier            = new Scan
  val erWeighted: Sparsifier      = new EffectiveResistance(reweight = true)
  val erUnweighted: Sparsifier    = new EffectiveResistance(reweight = false)

  /** The 12 algorithms of Table 2 (ER listed once per paper table). */
  val table2: Seq[Sparsifier] = Seq(
    random, kNeighbor, rankDegree, localDegree, spanningForest, tSpanner,
    forestFire, lSpar, gSpar, localSimilarity, scan, erWeighted)

  /** The 13 evaluated variants (ER split per §3.2 item 3). */
  val all: Seq[Sparsifier] = Seq(
    random, kNeighbor, rankDegree, localDegree, spanningForest, tSpanner,
    forestFire, lSpar, gSpar, localSimilarity, scan, erWeighted, erUnweighted)

  def byAbbrev(a: String): Sparsifier =
    all.find(_.abbrev.equalsIgnoreCase(a))
      .getOrElse(throw new NoSuchElementException(s"no sparsifier '$a'"))
}
