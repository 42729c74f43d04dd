package repro.graphs

import org.apache.spark.sql.SparkSession
import scala.collection.concurrent.TrieMap
import scala.util.Random
import repro.core.{GraphOps, SparkGraph}

/** A generator's output: the vertex count and the edge rows, in the order
  * [[GraphOps.fromArrays]] receives them. The canonicalize groupBy's output
  * order follows that order, and every seeded sparsifier follows the output's.
  */
final case class EdgeRows(n: Int, src: Array[Int], dst: Array[Int], weight: Array[Double])

/** Planted SBM blocks: the block count and the seed of the SBM that plants
  * them. A dataset's generator and [[Datasets.gnn]]'s labels both read it.
  */
final case class Blocks(k: Int, seed: Long)

/** One of the paper's Table 3 rows and our synthetic substitute for it: its
  * flags, its generator (scale → [[EdgeRows]]) and, for a GNN dataset, the
  * blocks its labels come from.
  */
final case class DatasetSpec(
    name: String,
    category: String,
    directed: Boolean,
    weighted: Boolean,
    connected: Boolean,
    paperNodes: Long,
    paperEdges: Long,
    generate: Double => EdgeRows,
    blocks: Option[Blocks] = None)

/** Node features + labels for the GNN datasets (Reddit / ogbn-proteins). */
final case class GnnData(
    graph: SparkGraph,
    features: Array[Array[Double]],
    labels: Array[Int],
    numClasses: Int,
    trainMask: Array[Boolean])

/** The 14-graph corpus of Table 3, rebuilt synthetically (DESIGN.md
  * "Substitutions"): same categories, directedness, weightedness and
  * connectivity, ~100× smaller so the full N×N×ρ sweep runs on one machine.
  *
  * `scale` multiplies vertex counts (tests use 0.25, benches 1.0) and must be
  * positive and finite. Graphs are cached per (name, scale), so each is built
  * and collected once.
  */
object Datasets {

  /** The one rule for a dataset scale, shared with `Experiments.Config`. */
  def requireScale(scale: Double): Unit =
    require(scale > 0 && scale < Double.PositiveInfinity, s"scale must be positive and finite, got $scale")

  /** A generator over `base` vertices at scale 1 (at least 8 at any scale). */
  private def scaled(base: Int)(rows: Int => EdgeRows): Double => EdgeRows =
    scale => rows(math.max(8, (base * scale).toInt))

  /** Unit-weight rows of `pairs`, sorted by (src, dst). */
  private def unitRows(n: Int, pairs: Set[(Int, Int)]): EdgeRows = {
    val sorted = pairs.toSeq.sorted
    EdgeRows(n, sorted.map(_._1).toArray, sorted.map(_._2).toArray, Array.fill(sorted.length)(1.0))
  }

  /** `main` on n vertices + `count` BA satellites of max(6, n / `divisor`) vertices each. */
  private def satellites(main: Set[(Int, Int)], n: Int, count: Int, divisor: Int, seed: Long): EdgeRows = {
    val (pairs, total) = GraphGen.withSatellites(main, n, nSatellites = count, satSize = math.max(6, n / divisor), seed)
    unitRows(total, pairs)
  }

  /** Web graphs: a directed power-law core + three small satellite
    * components (Table 3 lists all four as unconnected).
    */
  private def web(base: Int, mOut: Int, coreSeed: Long, satSeed: Long): Double => EdgeRows = scaled(base) { n =>
    satellites(GraphGen.directedPowerLaw(n, math.min(mOut, n / 4), coreSeed), n, 3, 100, satSeed)
  }

  /** GNN graphs: planted communities (for the label signal) + a BA hub
    * overlay (real Reddit/proteins graphs have heavy-tailed degrees, which
    * the degree-distribution experiments depend on).
    */
  private def planted(base: Int, b: Blocks, pIn: Double, pOut: Double, hubSeed: Long, linkSeed: Long): Double => EdgeRows =
    scaled(base) { n =>
      val sbm = GraphGen.sbm(n, b.k, pIn, pOut, b.seed)
      val hubs = GraphGen.barabasiAlbert(n, 3, hubSeed)
      unitRows(n, GraphGen.connect(sbm ++ hubs, n, linkSeed))
    }

  private val redditBlocks = Blocks(8, 97)
  private val proteinsBlocks = Blocks(2, 103)

  val specs: Seq[DatasetSpec] = Seq(
    DatasetSpec("ego-Facebook",  "Social Network", directed = false, weighted = false, connected = true,  4039,   88234,
      scaled(1200)(n => unitRows(n, GraphGen.barabasiAlbert(n, math.min(12, n / 4), 11)))),
    DatasetSpec("ego-Twitter",   "Social Network", directed = true,  weighted = false, connected = false, 81306,  1768149,
      scaled(2400)(n => satellites(GraphGen.directedPowerLaw(n, math.min(8, n / 4), 13), n, 4, 60, 17))),
    DatasetSpec("human_gene2",   "gene",           directed = false, weighted = true,  connected = false, 14340,  9041364,
      scaled(600) { n =>
        val triples = GraphGen.denseWeighted(n, 5, pIn = 0.35, pOut = 0.04, seed = 19)
        val satPairs = GraphGen.barabasiAlbert(math.max(6, n / 40), 2, 23, offset = n)
        val all = triples ++ satPairs.toSeq.map { case (u, v) => (u, v, 1.0) }
        EdgeRows(n + math.max(6, n / 40), all.map(_._1).toArray, all.map(_._2).toArray, all.map(_._3).toArray)
      }),
    DatasetSpec("com-DBLP",      "Community",      directed = false, weighted = false, connected = true,  317080, 1049866,
      scaled(2400)(n => unitRows(n, GraphGen.connect(GraphGen.sbm(n, 24, pIn = 0.10, pOut = 0.0008, seed = 29), n, 31)))),
    DatasetSpec("com-Amazon",    "Community",      directed = false, weighted = false, connected = true,  334863, 925872,
      scaled(2400)(n => unitRows(n, GraphGen.connect(GraphGen.sbm(n, 48, pIn = 0.12, pOut = 0.0004, seed = 37), n, 41)))),
    DatasetSpec("email-Enron",   "communication",  directed = false, weighted = false, connected = false, 36692,  183831,
      scaled(1400)(n => satellites(GraphGen.barabasiAlbert(n, math.min(6, n / 4), 43), n, 5, 80, 47))),
    DatasetSpec("ca-AstroPh",    "collaboration",  directed = false, weighted = false, connected = false, 18772,  198110,
      scaled(1800) { n =>
        val ws = GraphGen.wattsStrogatz(n, 10, 0.25, 53)
        val ba = GraphGen.barabasiAlbert(n, 3, 59) // hubs on the same vertex set
        satellites(ws ++ ba, n, 4, 90, 61)
      }),
    DatasetSpec("ca-HepPh",      "collaboration",  directed = false, weighted = false, connected = false, 12008,  118521,
      scaled(1400)(n => satellites(GraphGen.wattsStrogatz(n, 12, 0.15, 67), n, 3, 80, 71))),
    DatasetSpec("web-BerkStan",  "web",            directed = true,  weighted = false, connected = false, 685230, 7600595,
      web(3000, mOut = 10, coreSeed = 73, satSeed = 74)),
    DatasetSpec("web-Google",    "web",            directed = true,  weighted = false, connected = false, 875713, 5105039,
      web(3000, mOut = 6, coreSeed = 79, satSeed = 80)),
    DatasetSpec("web-NotreDame", "web",            directed = true,  weighted = false, connected = false, 325729, 1497134,
      web(2000, mOut = 5, coreSeed = 83, satSeed = 84)),
    DatasetSpec("web-Stanford",  "web",            directed = true,  weighted = false, connected = false, 281903, 2312497,
      web(2200, mOut = 8, coreSeed = 89, satSeed = 90)),
    DatasetSpec("Reddit",        "GNN",            directed = false, weighted = false, connected = true,  232965, 57307946,
      planted(2000, redditBlocks, pIn = 0.08, pOut = 0.004, hubSeed = 99, linkSeed = 101), Some(redditBlocks)),
    DatasetSpec("ogbn-proteins", "GNN",            directed = false, weighted = false, connected = true,  132534, 39561252,
      planted(1500, proteinsBlocks, pIn = 0.05, pOut = 0.008, hubSeed = 105, linkSeed = 107), Some(proteinsBlocks)),
  )

  def spec(name: String): DatasetSpec =
    specs.find(_.name == name).getOrElse(throw new NoSuchElementException(s"no dataset '$name'"))

  private val cache = TrieMap.empty[(String, Double), SparkGraph]

  /** Build (or fetch cached) substitute graph for a Table 3 dataset. */
  def get(spark: SparkSession, name: String, scale: Double = 1.0): SparkGraph = {
    requireScale(scale)
    val sp = spec(name)
    cache.getOrElseUpdate((name, scale), {
      val e = sp.generate(scale)
      GraphOps.fromArrays(spark, s"$name@$scale", e.src, e.dst, e.weight, sp.directed, sp.weighted, e.n.toLong)
    })
  }

  /** GNN datasets: community-correlated Gaussian node features; labels are
    * the planted SBM blocks; 50% train mask (deterministic in seed). `g` is
    * the dataset's graph, as [[get]] builds it at some scale.
    */
  def gnn(name: String, g: SparkGraph): GnnData = {
    val Blocks(k, seed) = spec(name).blocks.getOrElse(throw new IllegalArgumentException(s"not a GNN dataset: $name"))
    val dim = 16
    val n = g.numVertices.toInt
    val blocks = GraphGen.sbmBlocks(n, k)
    val rng = new Random(seed + 7)
    val centroids = Array.fill(k, dim)(rng.nextGaussian() * 1.0)
    // noisy features: σ chosen so features alone beat chance (Fig 13's red
    // MLP-only line) but the task does NOT saturate — neighbourhood
    // aggregation must do real denoising work, so sparsifiers that destroy
    // message-passing structure lose measurable accuracy.
    val feats = Array.tabulate(n)(v => Array.tabulate(dim)(j => centroids(blocks(v))(j) + rng.nextGaussian() * 6.0))
    val mask = Array.fill(n)(rng.nextDouble() < 0.5)
    GnnData(g, feats, blocks, k, mask)
  }

  def clearCache(): Unit = cache.clear()
}
