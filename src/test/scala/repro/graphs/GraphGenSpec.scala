package repro.graphs

import java.lang.Double.doubleToRawLongBits
import repro.SparkSpec
import repro.core.{GraphOps, SparkGraph}
import repro.harness.{Experiments, Taxonomy}
import repro.metrics.{ClusteringCoeffs, Connectivity, Csr}

class GraphGenSpec extends SparkSpec {

  /** A 64-bit FNV-1a-style hash over whole words, printed as hex. */
  private def hash(words: Iterator[Long]): String =
    f"${words.foldLeft(0xcbf29ce484222325L)((h, x) => (h ^ x) * 0x100000001b3L)}%016x"

  /** A dataset's content: n, m, both flags and a hash of (src, dst, weight
    * bits) over the edges sorted by (src, dst), so the digest does not follow
    * the edge order the canonicalize groupBy leaves, which changes with the
    * core count.
    */
  private def digest(g: SparkGraph): String = {
    val (s, d, w) = GraphOps.collectEdges(g)
    val words = s.indices.sortBy(i => (s(i), d(i))).iterator
      .flatMap(i => Iterator(s(i).toLong, d(i).toLong, doubleToRawLongBits(w(i))))
    s"n=${g.numVertices} m=${g.numEdges} directed=${g.directed} weighted=${g.weighted} ${hash(words)}"
  }

  /** A GNN dataset's labels, train mask and feature bits. */
  private def digest(d: GnnData): String = {
    val words = d.labels.iterator.map(_.toLong) ++ d.trainMask.iterator.map(b => if (b) 1L else 0L) ++
      d.features.iterator.flatMap(_.iterator.map(doubleToRawLongBits))
    s"n=${d.labels.length} classes=${d.numClasses} ${hash(words)}"
  }

  /** Each dataset's [[digest]] at scales 0.15 and 0.25. */
  private val contents: Map[String, (String, String)] = Map(
    "ego-Facebook" -> ("n=180 m=2016 directed=false weighted=false e45f9b880b46cd1d",
      "n=300 m=3456 directed=false weighted=false 6fcc00cd6bd05e31"),
    "ego-Twitter" -> ("n=384 m=2876 directed=true weighted=false d715fa3bdb65ba6d",
      "n=640 m=4828 directed=true weighted=false ba542ec181607251"),
    "human_gene2" -> ("n=96 m=426 directed=false weighted=true 6276cad2e179f0b6",
      "n=156 m=1145 directed=false weighted=true db3fa1d29f417d04"),
    "com-DBLP" -> ("n=360 m=381 directed=false weighted=false 81e61fefecd7f6a8",
      "n=600 m=870 directed=false weighted=false d0f512cb55165da9"),
    "com-Amazon" -> ("n=360 m=366 directed=false weighted=false 06eda7c77996a76b",
      "n=600 m=642 directed=false weighted=false b6b5967447c9f2cc"),
    "email-Enron" -> ("n=240 m=1264 directed=false weighted=false 25b5fda6ada7b746",
      "n=380 m=2104 directed=false weighted=false 0d14cb1e3be829aa"),
    "ca-AstroPh" -> ("n=294 m=2137 directed=false weighted=false 57b3ab8284437992",
      "n=474 m=3571 directed=false weighted=false 39bc73425de9b616"),
    "ca-HepPh" -> ("n=228 m=1283 directed=false weighted=false af54f224d9670e26",
      "n=368 m=2123 directed=false weighted=false d44c518ecd3d9bcf"),
    "web-BerkStan" -> ("n=468 m=4469 directed=true weighted=false e952e43b52b56f7c",
      "n=771 m=7475 directed=true weighted=false 9530468e1022e628"),
    "web-Google" -> ("n=468 m=2703 directed=true weighted=false f86b78959399fbbb",
      "n=771 m=4509 directed=true weighted=false 811601624fb33f36"),
    "web-NotreDame" -> ("n=318 m=1509 directed=true weighted=false 8c461f6270b9c4a1",
      "n=518 m=2509 directed=true weighted=false f3e76987fa455c0c"),
    "web-Stanford" -> ("n=348 m=2628 directed=true weighted=false d8883da749eff27d",
      "n=568 m=4388 directed=true weighted=false 1a2131dbbe6fd060"),
    "Reddit" -> ("n=300 m=1464 directed=false weighted=false 46856a7d6b0f8505",
      "n=500 m=3127 directed=false weighted=false b056c1bf894e2740"),
    "ogbn-proteins" -> ("n=225 m=1360 directed=false weighted=false 1ab503302d8638cd",
      "n=375 m=3133 directed=false weighted=false 6c44464b309de4cc"),
  )

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

    test(s"dataset ${sp.name}: content digest at scales 0.15 and 0.25") {
      val got = (digest(Datasets.get(spark, sp.name, 0.15)), digest(Datasets.get(spark, sp.name, 0.25)))
      assert(contents.get(sp.name) === Some(got))
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

  /** Each GNN dataset's [[digest]] at scale 0.25. */
  private val gnnContents: Map[String, String] = Map(
    "Reddit"        -> "n=500 classes=8 152645604a1e2aca",
    "ogbn-proteins" -> "n=375 classes=2 e0578cec52df299d",
  )

  test("GNN datasets' labels, train mask and features match their digests at 0.25") {
    val got = Seq("Reddit", "ogbn-proteins").map(name => name -> Datasets.gnn(name, Datasets.get(spark, name, 0.25)))
    assert(got.map { case (name, d) => name -> digest(d) }.toMap === gnnContents)
  }

  test("gnn rejects non-GNN datasets") {
    intercept[IllegalArgumentException](Datasets.gnn("ego-Facebook", Datasets.get(spark, "ego-Facebook", 0.15)))
  }

  test("unknown dataset name fails fast") {
    intercept[NoSuchElementException](Datasets.get(spark, "nope", 1.0))
  }

  test("a scale that is not positive and finite fails fast, in Datasets.get and Experiments.Config alike") {
    for (scale <- Seq(0.0, -0.5, Double.NaN, Double.PositiveInfinity)) {
      val e = intercept[IllegalArgumentException](Datasets.get(spark, "ego-Facebook", scale))
      assert(e.getMessage.contains(s"got $scale"), e.getMessage)
      val c = intercept[IllegalArgumentException](Experiments.Config(scale = scale))
      assert(c.getMessage === intercept[IllegalArgumentException](Datasets.requireScale(scale)).getMessage)
    }
  }
}
