package repro.metrics

import breeze.linalg.{argmax, DenseMatrix}
import breeze.numerics.exp
import scala.util.Random
import repro.core.SparkGraph
import repro.graphs.GnnData

/** GNN evaluation substrate (§2.2.5, §3.3.4).
  *
  * The paper trains PyG GraphSAGE / ClusterGCN on an A40 GPU; our substitute
  * is an SGC-style linear GNN (propagate features over the graph, then a
  * softmax head) — the smallest model that still measures what Fig 13
  * measures: how much *message-passing structure* a sparsifier keeps.
  *
  *   - GraphSAGE-like: 2 hops of mean-aggregation (self + neighbours) over
  *     the WHOLE training graph.
  *   - ClusterGCN-like: the same propagation but restricted to intra-cluster
  *     edges of a Louvain partition of the training graph (ClusterGCN's
  *     subgraph batching) — which is why intra-community sparsifiers
  *     (G-Spar/SCAN) shine here, the paper's Fig 13b finding.
  *
  * Exactly as §3.3.4: the model trains on the SPARSIFIED graph and is
  * tested with features propagated over the FULL graph.
  */
object Gnn {

  sealed trait Model
  case object SageLike extends Model
  case object ClusterGcnLike extends Model
  /** No-graph baseline (the paper's red "MLP only" line). */
  case object MlpOnly extends Model

  /** Mean-aggregation propagation: H = (D+I)⁻¹(A+I) X, applied `hops` times.
    * `restrict`: only aggregate over edges whose endpoints share a label.
    */
  def propagate(g: SparkGraph, x: DenseMatrix[Double], hops: Int,
                restrict: Option[Array[Int]] = None): DenseMatrix[Double] = {
    val c = Csr.fromGraph(g, symmetric = true)
    var h = x
    var hop = 0
    while (hop < hops) {
      val nh = DenseMatrix.zeros[Double](h.rows, h.cols)
      var v = 0
      while (v < c.n) {
        var cnt = 1.0
        nh(v, ::) :+= h(v, ::) // self loop
        c.foreachNbr(v) { (u, _) =>
          if (restrict.forall(lbl => lbl(u) == lbl(v))) {
            nh(v, ::) :+= h(u, ::); cnt += 1.0
          }
        }
        nh(v, ::) :/= cnt
        v += 1
      }
      h = nh
      hop += 1
    }
    h
  }

  /** Full-batch softmax regression with L2, plain gradient descent. */
  def trainSoftmax(h: DenseMatrix[Double], y: Array[Int], mask: Array[Boolean],
                   numClasses: Int, epochs: Int = 300, lr: Double = 0.5,
                   l2: Double = 1e-4, seed: Long = 0): DenseMatrix[Double] = {
    val rows = mask.zipWithIndex.collect { case (true, i) => i }
    val xt = DenseMatrix.tabulate(rows.length, h.cols)((r, c) => h(rows(r), c))
    val yt = rows.map(y)
    val rng = new Random(seed)
    var w = DenseMatrix.tabulate(h.cols, numClasses)((_, _) => rng.nextGaussian() * 0.01)
    val nT = rows.length.toDouble
    var ep = 0
    while (ep < epochs) {
      val logits = xt * w
      // row-wise softmax
      val p = logits.copy
      var r = 0
      while (r < p.rows) {
        val row = p(r, ::).t
        val mx = breeze.linalg.max(row)
        val e = exp(row - mx)
        val s = breeze.linalg.sum(e)
        p(r, ::) := (e / s).t
        p(r, yt(r)) -= 1.0
        r += 1
      }
      val grad = (xt.t * p) / nT + w * l2
      w -= grad * lr
      ep += 1
    }
    w
  }

  /** Class probabilities for every vertex under weights `w`. */
  def predictProbs(h: DenseMatrix[Double], w: DenseMatrix[Double]): DenseMatrix[Double] = {
    val logits = h * w
    val p = logits.copy
    var r = 0
    while (r < p.rows) {
      val row = p(r, ::).t
      val mx = breeze.linalg.max(row)
      val e = exp(row - mx)
      p(r, ::) := (e / breeze.linalg.sum(e)).t
      r += 1
    }
    p
  }

  final case class GnnResult(accuracy: Double, auroc: Double)

  /** Train on `trainGraph` (a sparsified graph), test on `fullGraph`. */
  def run(model: Model, trainGraph: SparkGraph, fullGraph: SparkGraph,
          data: GnnData, seed: Long = 0): GnnResult = {
    val n = data.labels.length
    val x0 = DenseMatrix.tabulate(n, data.features(0).length)((r, c) => data.features(r)(c))
    // standardize features column-wise
    val x = x0.copy
    var c = 0
    while (c < x.cols) {
      val col = x(::, c)
      val mu = breeze.linalg.sum(col) / n
      val sd = math.sqrt(breeze.linalg.sum((col - mu) *:* (col - mu)) / n + 1e-9)
      x(::, c) := (col - mu) / sd
      c += 1
    }

    val hTrain = model match {
      case MlpOnly        => x
      case SageLike       => propagate(trainGraph, x, hops = 2)
      case ClusterGcnLike =>
        val parts = Louvain.cluster(trainGraph, seed)
        propagate(trainGraph, x, hops = 2, restrict = Some(parts))
    }
    val hTest = model match {
      case MlpOnly => x
      case _       => propagate(fullGraph, x, hops = 2)
    }

    val w = trainSoftmax(hTrain, data.labels, data.trainMask, data.numClasses, seed = seed)
    val probs = predictProbs(hTest, w)
    val testIdx = data.trainMask.zipWithIndex.collect { case (false, i) => i }
    val correct = testIdx.count(i => argmax(probs(i, ::).t) == data.labels(i))
    val acc = correct.toDouble / math.max(1, testIdx.length)
    val auc = if (data.numClasses == 2) auroc(testIdx.map(i => probs(i, 1)), testIdx.map(data.labels(_) == 1)) else acc
    GnnResult(acc, auc)
  }

  /** Rank-based AUROC for binary scores. */
  def auroc(scores: Array[Double], positive: Array[Boolean]): Double = {
    val nPos = positive.count(identity)
    val nNeg = positive.length - nPos
    if (nPos == 0 || nNeg == 0) return 0.5
    // average rank of positives (ties get average rank)
    val sorted = scores.zip(positive).sortBy(_._1)
    var i = 0; var rankSumPos = 0.0
    while (i < sorted.length) {
      var j = i
      while (j < sorted.length && sorted(j)._1 == sorted(i)._1) j += 1
      val avgRank = (i + 1 + j).toDouble / 2 // ranks i+1..j
      (i until j).foreach(k => if (sorted(k)._2) rankSumPos += avgRank)
      i = j
    }
    (rankSumPos - nPos.toDouble * (nPos + 1) / 2) / (nPos.toDouble * nNeg)
  }
}
