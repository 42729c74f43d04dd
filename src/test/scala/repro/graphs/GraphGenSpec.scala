package repro.graphs

import repro.SparkSpec
import repro.core.GraphOps
import repro.harness.Taxonomy
import repro.metrics.{ClusteringCoeffs, Connectivity, Csr}

class GraphGenSpec extends SparkSpec {

  // ---- generators ----
  test("barabasiAlbert produces the expected edge count and connectivity") {
    val pairs = GraphGen.barabasiAlbert(200, 3, seed = 1)
    assert(pairs.size >= 3 * 190 && pairs.size <= 3 * 200)
    val g = GraphOps.fromPairs(spark, "ba200", pairs.toSeq, directed = false, 200)
    assert(Connectivity.unreachableRatio(g) === 0.0)
  }

  test("barabasiAlbert is deterministic in the seed") {
    assert(GraphGen.barabasiAlbert(100, 3, 7) === GraphGen.barabasiAlbert(100, 3, 7))
    assert(GraphGen.barabasiAlbert(100, 3, 7) !== GraphGen.barabasiAlbert(100, 3, 8))
  }

  test("barabasiAlbert grows hubs (max degree ≫ m)") {
    val g = GraphOps.fromPairs(spark, "ba-hub",
      GraphGen.barabasiAlbert(500, 4, 2).toSeq, directed = false, 500)
    assert(Csr.fromGraph(g).maxDegree > 20)
  }

  test("directedPowerLaw keeps arcs directed and loop-free") {
    val pairs = GraphGen.directedPowerLaw(300, 5, 3)
    assert(pairs.forall { case (u, v) => u != v })
    assert(pairs.size > 1000)
  }

  test("sbm respects intra/inter block densities") {
    val n = 400; val k = 4
    val pairs = GraphGen.sbm(n, k, pIn = 0.2, pOut = 0.005, seed = 5)
    val block = GraphGen.sbmBlocks(n, k)
    val (intra, inter) = pairs.partition { case (u, v) => block(u) == block(v) }
    // expected intra ≈ 0.2 · 4 · C(100,2) = 3960, inter ≈ 0.005 · 60000 = 300
    assert(intra.size > 3000 && intra.size < 5000, s"intra=${intra.size}")
    assert(inter.size > 150 && inter.size < 500, s"inter=${inter.size}")
  }

  test("sbm pair-index inversion emits valid, distinct pairs") {
    val pairs = GraphGen.sbm(100, 2, pIn = 0.5, pOut = 0.1, seed = 6)
    assert(pairs.forall { case (u, v) => u >= 0 && v < 100 && u < v })
  }

  test("wattsStrogatz has high clustering at low beta") {
    val g = GraphOps.fromPairs(spark, "ws",
      GraphGen.wattsStrogatz(300, 8, 0.1, 7).toSeq, directed = false, 300)
    assert(ClusteringCoeffs.mcc(g) > 0.3)
  }

  test("denseWeighted carries positive weights") {
    val t = GraphGen.denseWeighted(100, 4, 0.3, 0.02, 9)
    assert(t.nonEmpty && t.forall(_._3 > 0))
  }

  test("withSatellites adds disconnected components") {
    val main = GraphGen.barabasiAlbert(100, 3, 1)
    val (pairs, total) = GraphGen.withSatellites(main, 100, 3, 10, 2)
    val g = GraphOps.fromPairs(spark, "sat", pairs.toSeq, directed = false, total)
    assert(total === 130)
    assert(Csr.fromGraph(g).components().distinct.length === 4)
  }

  test("connect produces a single component") {
    val pairs = GraphGen.sbm(200, 10, pIn = 0.2, pOut = 0.0, seed = 11) // disconnected blocks
    val g = GraphOps.fromPairs(spark, "conn",
      GraphGen.connect(pairs, 200, 12).toSeq, directed = false, 200)
    assert(Connectivity.unreachableRatio(g) === 0.0)
  }

  // ---- the 14-dataset registry (Table 3) ----
  test("registry lists exactly the paper's 14 datasets") {
    assert(Datasets.specs.size === 14)
    assert(Datasets.specs.map(_.name).distinct.size === 14)
  }

  for (sp <- Datasets.specs) {
    test(s"dataset ${sp.name}: substitute matches its Table 3 flags") {
      assert(Taxonomy.datasetMatchesSpec(spark, sp.name, 0.15), s"${sp.name} flag mismatch")
    }

    test(s"dataset ${sp.name}: non-trivial and cached") {
      val g = Datasets.get(spark, sp.name, 0.15)
      assert(g.numVertices > 10 && g.numEdges > 10)
      assert(Datasets.get(spark, sp.name, 0.15) eq g) // cache hit
    }
  }

  test("GNN datasets carry features, labels and masks of matching size") {
    for (name <- Seq("Reddit", "ogbn-proteins")) {
      val d = Datasets.gnn(name, Datasets.get(spark, name, 0.15))
      val n = d.graph.numVertices.toInt
      assert(d.features.length === n && d.labels.length === n && d.trainMask.length === n)
      assert(d.labels.max === d.numClasses - 1)
      assert(d.trainMask.count(identity) > n / 4)
    }
  }

  test("gnn rejects non-GNN datasets") {
    intercept[IllegalArgumentException](Datasets.gnn("ego-Facebook", Datasets.get(spark, "ego-Facebook", 0.15)))
  }

  test("unknown dataset name fails fast") {
    intercept[NoSuchElementException](Datasets.get(spark, "nope", 1.0))
  }
}
