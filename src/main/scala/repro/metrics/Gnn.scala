package repro.metrics

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
  * tested with features propagated over the FULL graph. Matrices are
  * row-major `Array[Double]`s.
  */
object Gnn {

  sealed trait Model
  case object SageLike extends Model
  case object ClusterGcnLike extends Model
  /** No-graph baseline (the paper's red "MLP only" line). */
  case object MlpOnly extends Model

  /** Mean-aggregation propagation of row-major n × d features: H =
    * (D+I)⁻¹(A+I) X, applied `hops` times. `restrict`: only aggregate over
    * edges whose endpoints share a label.
    */
  def propagate(g: SparkGraph, x: Array[Double], d: Int, hops: Int,
                restrict: Option[Array[Int]] = None): Array[Double] = {
    val c = Csr.fromGraph(g, symmetric = true)
    (0 until hops).foldLeft(x) { (h, _) =>
      val nh = new Array[Double](h.length)
      for (v <- 0 until c.n) {
        def add(u: Int): Unit = for (j <- 0 until d) nh(v * d + j) += h(u * d + j)
        var cnt = 1.0
        add(v) // self loop
        c.foreachNbr(v) { (u, _) =>
          if (restrict.forall(lbl => lbl(u) == lbl(v))) { add(u); cnt += 1.0 }
        }
        for (j <- 0 until d) nh(v * d + j) /= cnt
      }
      nh
    }
  }

  /** The rows × cols product of row-major `a` (rows × inner) and `b`
    * (inner × cols). Each entry is a `Math.fma` chain over ascending inner
    * index, as a JavaBLAS `dgemm` sums it.
    */
  private def times(a: Array[Double], b: Array[Double], rows: Int, inner: Int, cols: Int): Array[Double] = {
    val out = new Array[Double](rows * cols)
    for (r <- 0 until rows) {
      var i = 0
      while (i < inner) {
        var j = 0
        while (j < cols) { out(r * cols + j) = Math.fma(a(r * inner + i), b(i * cols + j), out(r * cols + j)); j += 1 }
        i += 1
      }
    }
    out
  }

  /** Full-batch softmax regression with L2, plain gradient descent, on the
    * masked rows of the row-major n × d features `h`. Returns the row-major
    * d × numClasses weights.
    */
  def trainSoftmax(h: Array[Double], d: Int, y: Array[Int], mask: Array[Boolean],
                   numClasses: Int, epochs: Int = 300, lr: Double = 0.5,
                   l2: Double = 1e-4, seed: Long = 0): Array[Double] = {
    val rows = mask.indices.filter(mask).toArray
    val (nT, k) = (rows.length, numClasses)
    val xt = rows.flatMap(r => h.slice(r * d, r * d + d))
    val xtT = Array.tabulate(d * nT)(i => xt((i % nT) * d + i / nT))
    val rng = new Random(seed)
    val w = new Array[Double](d * k)
    for (c <- 0 until k; j <- 0 until d) w(j * k + c) = rng.nextGaussian() * 0.01 // column by column
    for (_ <- 0 until epochs) {
      val p = predictProbs(xt, d, w, k)
      for (r <- 0 until nT) p(r * k + y(rows(r))) -= 1.0
      val grad = times(xtT, p, d, nT, k)
      for (i <- w.indices) w(i) -= (grad(i) / nT + w(i) * l2) * lr
    }
    w
  }

  /** Class probabilities (row-major n × k) of the n × d features `h` under
    * the d × k weights `w`: the row-wise softmax of h·w.
    */
  def predictProbs(h: Array[Double], d: Int, w: Array[Double], k: Int): Array[Double] = {
    val p = times(h, w, h.length / d, d, k)
    for (r <- p.indices by k) {
      var (mx, s) = (p(r), 0.0)
      for (j <- r + 1 until r + k) mx = math.max(mx, p(j))
      for (j <- r until r + k) { p(j) = math.exp(p(j) - mx); s += p(j) }
      for (j <- r until r + k) p(j) /= s
    }
    p
  }

  final case class GnnResult(accuracy: Double, auroc: Double)

  /** The features standardized column-wise, row-major n × d. */
  private def standardized(data: GnnData): Array[Double] = {
    val (n, d) = (data.labels.length, data.features(0).length)
    val x = new Array[Double](n * d)
    for (c <- 0 until d) {
      val col = data.features.map(_(c))
      val mu = col.sum / n
      val sd = math.sqrt(col.map(v => (v - mu) * (v - mu)).sum / n + 1e-9)
      for (r <- 0 until n) x(r * d + c) = (col(r) - mu) / sd
    }
    x
  }

  /** The features `model` is tested on: standardized and, unless MLP-only,
    * propagated over the full graph `data.graph`. One value per (model,
    * data), so a sweep computes it once.
    */
  def testFeatures(model: Model, data: GnnData): Array[Double] = model match {
    case MlpOnly => standardized(data)
    case _       => propagate(data.graph, standardized(data), data.features(0).length, hops = 2)
  }

  /** Train on `trainGraph` (a sparsified graph); `test` is `testFeatures(model, data)`. */
  def run(model: Model, trainGraph: SparkGraph, data: GnnData, test: Array[Double],
          seed: Long = 0): GnnResult = {
    val (d, k) = (data.features(0).length, data.numClasses)
    val x = standardized(data)
    val hTrain = model match {
      case MlpOnly        => x
      case SageLike       => propagate(trainGraph, x, d, hops = 2)
      case ClusterGcnLike => propagate(trainGraph, x, d, hops = 2, restrict = Some(Louvain.cluster(trainGraph, seed)))
    }

    val w = trainSoftmax(hTrain, d, data.labels, data.trainMask, k, seed = seed)
    val probs = predictProbs(test, d, w, k)
    val testIdx = data.trainMask.indices.filterNot(data.trainMask).toArray
    def predicted(i: Int): Int = (0 until k).maxBy(c => probs(i * k + c)) // the first of equal maxima
    val correct = testIdx.count(i => predicted(i) == data.labels(i))
    val acc = correct.toDouble / math.max(1, testIdx.length)
    val auc = if (k == 2) auroc(testIdx.map(i => probs(i * k + 1)), testIdx.map(data.labels(_) == 1)) else acc
    GnnResult(acc, auc)
  }

  /** Rank-based AUROC for binary scores; scores must not be NaN. */
  def auroc(scores: Array[Double], positive: Array[Boolean]): Double = {
    val nPos = positive.count(identity)
    val nNeg = positive.length - nPos
    if (nPos == 0 || nNeg == 0) return 0.5
    // average rank of positives (ties get average rank)
    val sorted = Csr.sortedIndices(scores, _ < _)
    var i = 0; var rankSumPos = 0.0
    while (i < sorted.length) {
      var j = i
      while (j < sorted.length && scores(sorted(j)) == scores(sorted(i))) j += 1
      val avgRank = (i + 1 + j).toDouble / 2 // ranks i+1..j
      (i until j).foreach(k => if (positive(sorted(k))) rankSumPos += avgRank)
      i = j
    }
    (rankSumPos - nPos.toDouble * (nPos + 1) / 2) / (nPos.toDouble * nNeg)
  }
}
