package repro.metrics

import repro.SparkSpec
import repro.core.Sparsifiers
import repro.graphs.Datasets

/** [[Gnn]] against its breeze oracle [[BreezeGnn]]: the same features and
  * weights bit for bit, and the same results, for every model on both GNN
  * datasets.
  */
class GnnParitySpec extends SparkSpec {

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToLongBits)

  for (name <- Seq("Reddit", "ogbn-proteins"); model <- Seq(Gnn.SageLike, Gnn.ClusterGcnLike, Gnn.MlpOnly)) {
    test(s"$model on $name@0.25 matches the breeze implementation") {
      val data = Datasets.gnn(name, Datasets.get(spark, name, 0.25))
      val g = data.graph
      val d = data.features(0).length
      val test = Gnn.testFeatures(model, data)
      val x = BreezeGnn.standardized(data)
      val oracleTest = if (model == Gnn.MlpOnly) x else BreezeGnn.propagate(g, x, hops = 2)
      assert(bits(test) === bits(BreezeGnn.flat(oracleTest)))

      val h = BreezeGnn.trainFeatures(model, g, data)
      val w = Gnn.trainSoftmax(BreezeGnn.flat(h), d, data.labels, data.trainMask, data.numClasses)
      val oracleW = BreezeGnn.trainSoftmax(h, data.labels, data.trainMask, data.numClasses)
      assert(bits(w) === bits(BreezeGnn.flat(oracleW)))

      assert(Gnn.run(model, g, data, test) === BreezeGnn.run(model, g, g, data))
      val sparse = Sparsifiers.random(g, 0.5, 1)
      assert(Gnn.run(model, sparse, data, test) === BreezeGnn.run(model, sparse, g, data))
    }
  }
}
