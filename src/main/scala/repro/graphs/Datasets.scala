package repro.graphs

import org.apache.spark.sql.SparkSession
import scala.collection.concurrent.TrieMap
import scala.util.Random
import repro.core.{GraphOps, SparkGraph}

/** One of the paper's Table 3 rows and our synthetic substitute for it. */
final case class DatasetSpec(
    name: String,
    category: String,
    directed: Boolean,
    weighted: Boolean,
    connected: Boolean,
    paperNodes: Long,
    paperEdges: Long)

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
  * `scale` multiplies vertex counts (tests use 0.25, benches 1.0). Graphs
  * are cached per (name, scale), so each is built and collected once.
  */
object Datasets {

  val specs: Seq[DatasetSpec] = Seq(
    DatasetSpec("ego-Facebook",  "Social Network", directed = false, weighted = false, connected = true,  4039,   88234),
    DatasetSpec("ego-Twitter",   "Social Network", directed = true,  weighted = false, connected = false, 81306,  1768149),
    DatasetSpec("human_gene2",   "gene",           directed = false, weighted = true,  connected = false, 14340,  9041364),
    DatasetSpec("com-DBLP",      "Community",      directed = false, weighted = false, connected = true,  317080, 1049866),
    DatasetSpec("com-Amazon",    "Community",      directed = false, weighted = false, connected = true,  334863, 925872),
    DatasetSpec("email-Enron",   "communication",  directed = false, weighted = false, connected = false, 36692,  183831),
    DatasetSpec("ca-AstroPh",    "collaboration",  directed = false, weighted = false, connected = false, 18772,  198110),
    DatasetSpec("ca-HepPh",      "collaboration",  directed = false, weighted = false, connected = false, 12008,  118521),
    DatasetSpec("web-BerkStan",  "web",            directed = true,  weighted = false, connected = false, 685230, 7600595),
    DatasetSpec("web-Google",    "web",            directed = true,  weighted = false, connected = false, 875713, 5105039),
    DatasetSpec("web-NotreDame", "web",            directed = true,  weighted = false, connected = false, 325729, 1497134),
    DatasetSpec("web-Stanford",  "web",            directed = true,  weighted = false, connected = false, 281903, 2312497),
    DatasetSpec("Reddit",        "GNN",            directed = false, weighted = false, connected = true,  232965, 57307946),
    DatasetSpec("ogbn-proteins", "GNN",            directed = false, weighted = false, connected = true,  132534, 39561252),
  )

  def spec(name: String): DatasetSpec =
    specs.find(_.name == name).getOrElse(throw new NoSuchElementException(s"no dataset '$name'"))

  private val cache = TrieMap.empty[(String, Double), SparkGraph]

  private def sc(x: Int, scale: Double): Int = math.max(8, (x * scale).toInt)

  /** Build (or fetch cached) substitute graph for a Table 3 dataset. */
  def get(spark: SparkSession, name: String, scale: Double = 1.0): SparkGraph =
    cache.getOrElseUpdate((name, scale), build(spark, name, scale))

  private def graph(spark: SparkSession, name: String, scale: Double,
                    pairs: Set[(Int, Int)], n: Int, directed: Boolean): SparkGraph =
    GraphOps.fromPairs(spark, s"$name@$scale", pairs.toSeq.sorted, directed, n.toLong)

  private def build(spark: SparkSession, name: String, scale: Double): SparkGraph = name match {
    case "ego-Facebook" =>
      val n = sc(1200, scale)
      graph(spark, name, scale, GraphGen.barabasiAlbert(n, math.min(12, n / 4), 11), n, directed = false)

    case "ego-Twitter" =>
      val n = sc(2400, scale)
      val main = GraphGen.directedPowerLaw(n, math.min(8, n / 4), 13)
      val (pairs, total) = GraphGen.withSatellites(main, n, nSatellites = 4, satSize = math.max(6, n / 60), 17)
      graph(spark, name, scale, pairs, total, directed = true)

    case "human_gene2" =>
      val n = sc(600, scale)
      val triples = GraphGen.denseWeighted(n, 5, pIn = 0.35, pOut = 0.04, seed = 19)
      val satPairs = GraphGen.barabasiAlbert(math.max(6, n / 40), 2, 23, offset = n)
      val total = n + math.max(6, n / 40)
      val all = triples ++ satPairs.toSeq.map { case (u, v) => (u, v, 1.0) }
      GraphOps.fromArrays(spark, s"$name@$scale",
        all.map(_._1).toArray, all.map(_._2).toArray, all.map(_._3).toArray,
        directed = false, weighted = true, total.toLong)

    case "com-DBLP" =>
      val n = sc(2400, scale)
      val pairs = GraphGen.connect(GraphGen.sbm(n, 24, pIn = 0.10, pOut = 0.0008, seed = 29), n, 31)
      graph(spark, name, scale, pairs, n, directed = false)

    case "com-Amazon" =>
      val n = sc(2400, scale)
      val pairs = GraphGen.connect(GraphGen.sbm(n, 48, pIn = 0.12, pOut = 0.0004, seed = 37), n, 41)
      graph(spark, name, scale, pairs, n, directed = false)

    case "email-Enron" =>
      val n = sc(1400, scale)
      val main = GraphGen.barabasiAlbert(n, math.min(6, n / 4), 43)
      val (pairs, total) = GraphGen.withSatellites(main, n, nSatellites = 5, satSize = math.max(6, n / 80), 47)
      graph(spark, name, scale, pairs, total, directed = false)

    case "ca-AstroPh" =>
      val n = sc(1800, scale)
      val ws = GraphGen.wattsStrogatz(n, 10, 0.25, 53)
      val ba = GraphGen.barabasiAlbert(n, 3, 59) // hubs on the same vertex set
      val (pairs, total) = GraphGen.withSatellites(ws ++ ba, n, nSatellites = 4, satSize = math.max(6, n / 90), 61)
      graph(spark, name, scale, pairs, total, directed = false)

    case "ca-HepPh" =>
      val n = sc(1400, scale)
      val ws = GraphGen.wattsStrogatz(n, 12, 0.15, 67)
      val (pairs, total) = GraphGen.withSatellites(ws, n, nSatellites = 3, satSize = math.max(6, n / 80), 71)
      graph(spark, name, scale, pairs, total, directed = false)

    // web graphs: directed power-law cores + small satellite components
    // (Table 3 lists all four as unconnected)
    case "web-BerkStan" =>
      val n = sc(3000, scale)
      val core = GraphGen.directedPowerLaw(n, math.min(10, n / 4), 73)
      val (pairs, total) = GraphGen.withSatellites(core, n, nSatellites = 3, satSize = math.max(6, n / 100), 74)
      graph(spark, name, scale, pairs, total, directed = true)

    case "web-Google" =>
      val n = sc(3000, scale)
      val core = GraphGen.directedPowerLaw(n, math.min(6, n / 4), 79)
      val (pairs, total) = GraphGen.withSatellites(core, n, nSatellites = 3, satSize = math.max(6, n / 100), 80)
      graph(spark, name, scale, pairs, total, directed = true)

    case "web-NotreDame" =>
      val n = sc(2000, scale)
      val core = GraphGen.directedPowerLaw(n, math.min(5, n / 4), 83)
      val (pairs, total) = GraphGen.withSatellites(core, n, nSatellites = 3, satSize = math.max(6, n / 100), 84)
      graph(spark, name, scale, pairs, total, directed = true)

    case "web-Stanford" =>
      val n = sc(2200, scale)
      val core = GraphGen.directedPowerLaw(n, math.min(8, n / 4), 89)
      val (pairs, total) = GraphGen.withSatellites(core, n, nSatellites = 3, satSize = math.max(6, n / 100), 90)
      graph(spark, name, scale, pairs, total, directed = true)

    // GNN graphs: planted communities (for the label signal) + a BA hub
    // overlay (real Reddit/proteins graphs have heavy-tailed degrees, which
    // the degree-distribution experiments depend on).
    case "Reddit" =>
      val n = sc(2000, scale)
      val sbm = GraphGen.sbm(n, 8, pIn = 0.08, pOut = 0.004, seed = 97)
      val hubs = GraphGen.barabasiAlbert(n, 3, 99)
      graph(spark, name, scale, GraphGen.connect(sbm ++ hubs, n, 101), n, directed = false)

    case "ogbn-proteins" =>
      val n = sc(1500, scale)
      val sbm = GraphGen.sbm(n, 2, pIn = 0.05, pOut = 0.008, seed = 103)
      val hubs = GraphGen.barabasiAlbert(n, 3, 105)
      graph(spark, name, scale, GraphGen.connect(sbm ++ hubs, n, 107), n, directed = false)

    case other => throw new NoSuchElementException(s"no dataset '$other'")
  }

  /** GNN datasets: community-correlated Gaussian node features; labels are
    * the planted SBM blocks; 50% train mask (deterministic in seed). `g` is
    * the dataset's graph, as [[get]] builds it at some scale.
    */
  def gnn(name: String, g: SparkGraph, dim: Int = 16): GnnData = {
    val (k, seed) = name match {
      case "Reddit"        => (8, 97L)
      case "ogbn-proteins" => (2, 103L)
      case other           => throw new IllegalArgumentException(s"not a GNN dataset: $other")
    }
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
