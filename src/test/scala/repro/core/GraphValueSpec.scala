package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.core.sparsifiers.{EffectiveResistance, SimilarityScores}
import repro.graphs.Datasets
import repro.metrics.{Centrality, ClusteringCoeffs, Connectivity, Csr, DegreeDistribution, Distances}

/** The graph value's contract: it holds no Spark object, a dataset's plan
  * runs once while it is built, one CSR per view and one symmetrization are
  * shared by sparsifiers and metrics, every metric scores the edges the
  * graph counts, and the precompute caches key on graph content rather than
  * on the display name.
  */
class GraphValueSpec extends SparkSpec {

  private lazy val fb = Datasets.get(spark, "ego-Facebook", 0.1)
  private lazy val tw = Datasets.get(spark, "ego-Twitter", 0.05)

  /** Result of `body` and the number of Spark jobs it started. */
  private def jobsDuring[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    ListenerBusAccess.drain(sc)
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      val r = body
      ListenerBusAccess.drain(sc)
      (r, jobs.get)
    } finally sc.removeSparkListener(listener)
  }

  test("a graph holds no Spark object") {
    val sparkFields = classOf[SparkGraph].getDeclaredFields.toSeq
      .filter(f => Option(f.getType.getPackage).exists(_.getName.startsWith("org.apache.spark")))
    assert(sparkFields.map(_.getName) === Nil)
  }

  for ((kind, input) <- Seq("undirected" -> (() => fb), "directed" -> (() => tw)))
    test(s"dataset ($kind) runs its plan once; RN and metrics start no job") {
      // a fresh build of the dataset through the same canonicalize plan
      val data = input()
      val (s0, d0, w0) = GraphOps.collectEdges(data)
      val (in, buildJobs) = jobsDuring(
        GraphOps.fromArrays(spark, data.name, s0, d0, w0, data.directed, data.weighted, data.numVertices))
      assert(buildJobs > 0)
      val (h, rnJobs) = jobsDuring(Sparsifiers.random(in, 0.5, seed = 1))
      assert(rnJobs === 0)
      val m = h.numEdges
      val (_, jobs) = jobsDuring {
        assert(GraphOps.collectEdges(in)._1.length === in.numEdges)
        assert(GraphOps.collectEdges(h)._1.length === m)
        assert(Csr.fromGraph(h, symmetric = true) eq Csr.fromGraph(h, symmetric = true))
        Csr.fromGraph(h, symmetric = false)
        Distances.spspStretch(in, h, nPairs = 50)
        Centrality.pagerank(h)
        ClusteringCoeffs.mcc(h)
        ClusteringCoeffs.gcc(h)
        DegreeDistribution.distance(in, h)
        Connectivity.isolatedRatio(h)
        Centrality.betweenness(h)
        h.numEdges
      }
      assert(jobs === 0)
    }

  test("RN output: metrics score the sampled edges, not a rerun of the sampling plan") {
    val h = Sparsifiers.random(fb, 0.5, seed = 7)
    val (s, d, w) = GraphOps.collectEdges(h)
    val copy = SparkGraph.fromCanonical("rn-copy", s, d, w, h.directed, h.weighted, h.numVertices)
    def scores(g: SparkGraph): Seq[Double] =
      Seq(Connectivity.isolatedRatio(g), DegreeDistribution.distance(fb, g),
        ClusteringCoeffs.mcc(g), ClusteringCoeffs.gcc(g)) ++ Centrality.pagerank(g, iters = 12)
    assert(scores(h) === scores(copy))
  }

  for (sp <- Seq(Sparsifiers.random, Sparsifiers.kNeighbor, Sparsifiers.rankDegree, Sparsifiers.spanningForest,
      Sparsifiers.erWeighted, Sparsifiers.localDegree, Sparsifiers.localSimilarity, Sparsifiers.lSpar,
      Sparsifiers.gSpar, Sparsifiers.scan)) {
    test(s"${sp.abbrev} output starts no job for its edge count and CSR") {
      fb.numEdges
      EffectiveResistance.resistances(fb, 2000)
      val (_, jobs) = jobsDuring {
        val h = sp(fb, 0.5, seed = 1)
        h.numEdges
        Csr.fromGraph(h, symmetric = true)
        Csr.fromGraph(h, symmetric = false)
      }
      assert(jobs === 0)
    }
  }

  test("precompute caches key on content: same-named graphs get their own scores") {
    val path = GraphOps.fromPairs(spark, "twin", Seq((0, 1), (1, 2), (2, 3)), directed = false, 4)
    val cycle = GraphOps.fromPairs(spark, "twin", Seq((0, 1), (1, 2), (2, 3), (0, 3)), directed = false, 4)

    // a tree edge has resistance 1; an edge of a 4-cycle 1·3/(1+3)
    val (_, _, _, rPath) = EffectiveResistance.resistances(path, 100)
    val (_, _, _, rCycle) = EffectiveResistance.resistances(cycle, 100)
    assert(rPath.length === 3 && rPath.forall(r => math.abs(r - 1.0) < 1e-6))
    assert(rCycle.length === 4 && rCycle.forall(r => math.abs(r - 0.75) < 1e-6))

    // no triangles in either graph, so every edge has zero common neighbours
    val sPath = SimilarityScores.forGraph(path)
    val sCycle = SimilarityScores.forGraph(cycle)
    assert(sPath.common.length === 3 && sCycle.common.length === 4)
    assert((sPath.common ++ sCycle.common).forall(_ == 0))
    assert(sPath ne sCycle)
  }

  test("a directed graph is symmetrized once, on the driver: SF and ER-u calls start no job") {
    tw.numEdges
    val (_, jobs) = jobsDuring {
      for (sp <- Seq(Sparsifiers.spanningForest, Sparsifiers.erUnweighted); _ <- 1 to 2)
        sp(tw, 0.5, seed = 1).numEdges
    }
    assert(jobs === 0)
    val und = tw.symmetrized
    assert(tw.symmetrized eq und)
    assert(Csr.undirected(tw) eq Csr.fromGraph(und))
  }
}
