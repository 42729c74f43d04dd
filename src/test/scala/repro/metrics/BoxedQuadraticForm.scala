package repro.metrics

import scala.util.Random
import repro.core.{GraphOps, SparkGraph}

/** Test oracle for [[QuadraticForm]]: the form it replaced, which draws
  * every vector with a boxed `Array.fill` over `Random.nextGaussian` on each
  * call and sums all the vectors' forms in one pass over the edges.
  */
object BoxedQuadraticForm {

  /** xᵀLx for each vector x in `xs`, one pass over the edge arrays. */
  private def forms(g: SparkGraph, xs: Array[Array[Double]]): Array[Double] = {
    val (src, dst, wt) = GraphOps.collectEdges(g)
    val out = new Array[Double](xs.length)
    var e = 0
    while (e < src.length) {
      var k = 0
      while (k < xs.length) {
        val d = xs(k)(src(e)) - xs(k)(dst(e))
        out(k) += wt(e) * d * d
        k += 1
      }
      e += 1
    }
    out
  }

  def meanRatio(orig: SparkGraph, spar: SparkGraph, nVectors: Int, seed: Long): Double = {
    val rng = new Random(seed)
    val n = orig.numVertices
    val xs = Array.fill(nVectors)(Array.fill(n)(rng.nextGaussian()))
    val qo = forms(orig, xs)
    val qs = forms(spar, xs)
    val ratios = qo.indices.collect { case i if qo(i) > 1e-12 => qs(i) / qo(i) }
    ratios.sum / ratios.length
  }
}
