package repro.metrics

import breeze.linalg.{argmax, DenseMatrix}
import breeze.numerics.exp
import scala.util.Random
import repro.core.SparkGraph
import repro.graphs.GnnData
import repro.metrics.Gnn._

/** Test oracle for [[Gnn]]: the breeze `DenseMatrix` implementation it
  * replaced. `Gnn` must give the same weights, bit for bit, and the same
  * results.
  */
object BreezeGnn {

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

  def trainSoftmax(h: DenseMatrix[Double], y: Array[Int], mask: Array[Boolean],
                   numClasses: Int, epochs: Int = 300, lr: Double = 0.5,
                   l2: Double = 1e-4, seed: Long = 0): DenseMatrix[Double] = {
    val rows = mask.zipWithIndex.collect { case (true, i) => i }
    val xt = DenseMatrix.tabulate(rows.length, h.cols)((r, c) => h(rows(r), c))
    val yt = rows.map(y)
    val rng = new Random(seed)
    val w = DenseMatrix.tabulate(h.cols, numClasses)((_, _) => rng.nextGaussian() * 0.01)
    val nT = rows.length.toDouble
    var ep = 0
    while (ep < epochs) {
      val logits = xt * w
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

  /** The features standardized column-wise. */
  def standardized(data: GnnData): DenseMatrix[Double] = {
    val n = data.labels.length
    val x0 = DenseMatrix.tabulate(n, data.features(0).length)((r, c) => data.features(r)(c))
    val x = x0.copy
    var c = 0
    while (c < x.cols) {
      val col = x(::, c)
      val mu = breeze.linalg.sum(col) / n
      val sd = math.sqrt(breeze.linalg.sum((col - mu) *:* (col - mu)) / n + 1e-9)
      x(::, c) := (col - mu) / sd
      c += 1
    }
    x
  }

  /** The features `model` trains on over `trainGraph`. */
  def trainFeatures(model: Model, trainGraph: SparkGraph, data: GnnData, seed: Long = 0): DenseMatrix[Double] = {
    val x = standardized(data)
    model match {
      case MlpOnly        => x
      case SageLike       => propagate(trainGraph, x, hops = 2)
      case ClusterGcnLike =>
        val parts = Louvain.cluster(trainGraph, seed)
        propagate(trainGraph, x, hops = 2, restrict = Some(parts))
    }
  }

  def run(model: Model, trainGraph: SparkGraph, fullGraph: SparkGraph,
          data: GnnData, seed: Long = 0): GnnResult = {
    val hTrain = trainFeatures(model, trainGraph, data, seed)
    val hTest = model match {
      case MlpOnly => standardized(data)
      case _       => propagate(fullGraph, standardized(data), hops = 2)
    }
    val w = trainSoftmax(hTrain, data.labels, data.trainMask, data.numClasses, seed = seed)
    val probs = predictProbs(hTest, w)
    val testIdx = data.trainMask.zipWithIndex.collect { case (false, i) => i }
    val correct = testIdx.count(i => argmax(probs(i, ::).t) == data.labels(i))
    val acc = correct.toDouble / math.max(1, testIdx.length)
    val auc = if (data.numClasses == 2) auroc(testIdx.map(i => probs(i, 1)), testIdx.map(data.labels(_) == 1)) else acc
    GnnResult(acc, auc)
  }

  /** Row-major copy of `m`, the layout [[Gnn]] works in. */
  def flat(m: DenseMatrix[Double]): Array[Double] =
    Array.tabulate(m.rows * m.cols)(i => m(i / m.cols, i % m.cols))
}
