package repro.metrics

import repro.SparkSpec
import repro.core.{GraphOps, Sparsifiers}
import repro.graphs.Datasets

class GnnSpec extends SparkSpec {

  // ---- AUROC ----
  test("auroc of a perfect classifier is 1") {
    val scores = Array(0.1, 0.2, 0.8, 0.9)
    val pos = Array(false, false, true, true)
    assert(Gnn.auroc(scores, pos) === 1.0)
  }

  test("auroc of an inverted classifier is 0") {
    val scores = Array(0.9, 0.8, 0.2, 0.1)
    val pos = Array(false, false, true, true)
    assert(Gnn.auroc(scores, pos) === 0.0)
  }

  test("auroc of a constant classifier is 0.5 (ties averaged)") {
    val scores = Array(0.5, 0.5, 0.5, 0.5)
    val pos = Array(false, true, false, true)
    assert(Gnn.auroc(scores, pos) === 0.5)
  }

  test("auroc equals the boxed-sort ranking on tied scores (40 random instances)") {
    def boxed(scores: Array[Double], positive: Array[Boolean]): Double = {
      val nPos = positive.count(identity); val nNeg = positive.length - nPos
      if (nPos == 0 || nNeg == 0) return 0.5
      val sorted = scores.zip(positive).sortBy(_._1)
      var i = 0; var rankSumPos = 0.0
      while (i < sorted.length) {
        var j = i
        while (j < sorted.length && sorted(j)._1 == sorted(i)._1) j += 1
        val avgRank = (i + 1 + j).toDouble / 2
        (i until j).foreach(k => if (sorted(k)._2) rankSumPos += avgRank)
        i = j
      }
      (rankSumPos - nPos.toDouble * (nPos + 1) / 2) / (nPos.toDouble * nNeg)
    }
    val rng = new scala.util.Random(5)
    val levels = Array(-0.0, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9)
    (0 until 40).foreach { it =>
      val len = 1 + rng.nextInt(200)
      val scores = Array.fill(len)(levels(rng.nextInt(levels.length)))
      val pos = Array.fill(len)(rng.nextBoolean())
      assert(Gnn.auroc(scores, pos) === boxed(scores, pos), s"instance $it")
    }
  }

  test("auroc degenerate classes return 0.5") {
    assert(Gnn.auroc(Array(0.1, 0.9), Array(true, true)) === 0.5)
  }

  // ---- propagation ----
  test("propagation over an edgeless graph is the identity") {
    val base = GraphOps.fromPairs(spark, "gnn-one", Seq((0, 1)), directed = false, 3)
    val empty = GraphOps.subgraph(base, Array.empty, "empty")
    val x = Array(1.0, 0.0, 0.0, 1.0, 2.0, 2.0)
    val h = Gnn.propagate(empty, x, d = 2, hops = 2)
    assert(h.toSeq === x.toSeq)
  }

  test("propagation averages neighbour features") {
    val g = GraphOps.fromPairs(spark, "gnn-pair", Seq((0, 1)), directed = false, 2)
    val x = Array(2.0, 0.0)
    val h = Gnn.propagate(g, x, d = 1, hops = 1)
    assert(math.abs(h(0) - 1.0) < 1e-12)
    assert(math.abs(h(1) - 1.0) < 1e-12)
  }

  test("restricted propagation ignores cross-cluster edges") {
    val g = GraphOps.fromPairs(spark, "gnn-cross", Seq((0, 1)), directed = false, 2)
    val x = Array(2.0, 0.0)
    val h = Gnn.propagate(g, x, d = 1, hops = 1, restrict = Some(Array(0, 1)))
    assert(h(0) === 2.0 && h(1) === 0.0)
  }

  // ---- softmax training ----
  test("softmax regression separates linearly separable data") {
    val h = Array(1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9) // 4 × 2, row-major
    val y = Array(0, 0, 1, 1)
    val mask = Array(true, true, true, true)
    val w = Gnn.trainSoftmax(h, 2, y, mask, numClasses = 2, epochs = 200)
    val p = Gnn.predictProbs(h, 2, w, 2) // p(r * 2 + c) = P(row r is class c)
    assert(p(0) > 0.5 && p(2) > 0.5 && p(5) > 0.5 && p(7) > 0.5)
  }

  // ---- end-to-end ----
  test("SAGE-like GNN on the SBM dataset beats chance and MLP-only") {
    val data = Datasets.gnn("Reddit", Datasets.get(spark, "Reddit", 0.25))
    val g = data.graph
    val full = Gnn.run(Gnn.SageLike, g, data, Gnn.testFeatures(Gnn.SageLike, data))
    val mlp = Gnn.run(Gnn.MlpOnly, g, data, Gnn.testFeatures(Gnn.MlpOnly, data))
    assert(full.accuracy > 1.0 / data.numClasses + 0.1, s"GNN acc ${full.accuracy}")
    assert(full.accuracy > mlp.accuracy, s"graph should help: ${full.accuracy} vs ${mlp.accuracy}")
  }

  test("binary proteins-like task yields AUROC above 0.5") {
    val data = Datasets.gnn("ogbn-proteins", Datasets.get(spark, "ogbn-proteins", 0.25))
    val g = data.graph
    val r = Gnn.run(Gnn.SageLike, g, data, Gnn.testFeatures(Gnn.SageLike, data))
    assert(r.auroc > 0.6, s"AUROC ${r.auroc}")
  }

  test("training on a sparsified graph, testing on full (paper §3.3.4)") {
    val data = Datasets.gnn("Reddit", Datasets.get(spark, "Reddit", 0.25))
    val g = data.graph
    val h = Sparsifiers.random(g, 0.5, 1)
    val r = Gnn.run(Gnn.SageLike, h, data, Gnn.testFeatures(Gnn.SageLike, data))
    assert(r.accuracy > 1.0 / data.numClasses, s"sparsified-train acc ${r.accuracy}")
  }

  test("ClusterGCN-like model runs end to end") {
    val data = Datasets.gnn("Reddit", Datasets.get(spark, "Reddit", 0.25))
    val g = data.graph
    val r = Gnn.run(Gnn.ClusterGcnLike, g, data, Gnn.testFeatures(Gnn.ClusterGcnLike, data))
    assert(r.accuracy > 1.0 / data.numClasses)
  }
}
