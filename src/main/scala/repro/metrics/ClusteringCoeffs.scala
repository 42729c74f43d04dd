package repro.metrics

import repro.core.SparkGraph

/** Clustering coefficients (§2.2.4) from one driver triangle enumeration on
  * the undirected simple graph ([[Csr.undirected]]: directed inputs are
  * symmetrized — weights are unused, per Table 1's "weight not used"
  * footnote).
  *
  *   LCC(v) = 2·T(v) / (deg(v)(deg(v)−1)),  MCC = mean over all vertices,
  *   GCC    = 3·#triangles / #wedges.
  */
object ClusteringCoeffs {

  /** Triangles through each vertex. Each triangle a<b<x is found once, from
    * its smallest vertex a: the neighbours above a are marked, then every
    * marked neighbour x > b of a neighbour b > a closes one.
    */
  def trianglesPerVertex(g: SparkGraph): Array[Long] = {
    val c = Csr.undirected(g)
    val tri = new Array[Long](c.n)
    val markedBy = Array.fill(c.n)(-1)
    var a = 0
    while (a < c.n) {
      var i = c.offsets(a)
      while (i < c.offsets(a + 1)) { if (c.nbrs(i) > a) markedBy(c.nbrs(i)) = a; i += 1 }
      i = c.offsets(a)
      while (i < c.offsets(a + 1)) {
        val b = c.nbrs(i)
        if (b > a) {
          var j = c.offsets(b)
          while (j < c.offsets(b + 1)) {
            val x = c.nbrs(j)
            if (x > b && markedBy(x) == a) { tri(a) += 1; tri(b) += 1; tri(x) += 1 }
            j += 1
          }
        }
        i += 1
      }
      a += 1
    }
    tri
  }

  /** Total triangle count. */
  def triangleCount(g: SparkGraph): Long = trianglesPerVertex(g).sum / 3

  /** Mean local clustering coefficient over ALL vertices (deg<2 ⇒ 0), so the
    * value is comparable across prune rates with a fixed vertex set.
    */
  def mcc(g: SparkGraph): Double = {
    val c = Csr.undirected(g)
    val tri = trianglesPerVertex(g)
    var lccSum = 0.0
    var v = 0
    while (v < c.n) {
      val d = c.degree(v).toDouble
      if (d >= 2) lccSum += 2.0 * tri(v) / (d * (d - 1))
      v += 1
    }
    lccSum / g.numVertices
  }

  /** Global clustering coefficient = 3·triangles / wedges. */
  def gcc(g: SparkGraph): Double = {
    val c = Csr.undirected(g)
    val wedges = (0 until c.n).map(v => c.degree(v).toLong * (c.degree(v) - 1) / 2).sum
    if (wedges <= 0) 0.0 else 3.0 * triangleCount(g) / wedges
  }
}
