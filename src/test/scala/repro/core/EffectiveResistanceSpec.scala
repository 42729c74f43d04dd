package repro.core

import breeze.linalg.{inv, DenseMatrix}
import java.nio.ByteBuffer
import java.security.MessageDigest
import java.util.concurrent.ForkJoinPool
import repro.SparkSpec
import repro.core.sparsifiers.EffectiveResistance
import repro.graphs.Datasets
import repro.metrics.Csr

/** The tiled-Cholesky resistances against the dense LU inverse they
  * replaced, against closed forms, and across pool sizes.
  */
class EffectiveResistanceSpec extends SparkSpec {
  import EffectiveResistanceSpec.inverseResistances

  private def resistances(g: SparkGraph): (Array[Int], Array[Int], Array[Double], Array[Double]) =
    EffectiveResistance.resistances(g, EffectiveResistance.MaxDenseN)

  private def maxRelErr(got: Array[Double], want: Array[Double]): Double =
    got.indices.map(i => math.abs(got(i) - want(i)) / want(i)).max

  private def components(g: SparkGraph): Int = Csr.fromGraph(g).components().distinct.length

  private lazy val handBuilt = GraphOps.fromPairs(spark, "er-islands",
    Seq((0, 1), (1, 2), (0, 2), (2, 3), (4, 5)), directed = false, 7) // 6 is isolated

  private val connected = Seq("com-Amazon" -> 0.15, "ego-Facebook" -> 0.1, "ogbn-proteins" -> 0.25)
  private lazy val disconnected = Seq(Datasets.get(spark, "ca-HepPh", 0.25), handBuilt)

  for ((name, scale) <- connected)
    test(s"matches the dense inverse on $name@$scale to 1e-12") {
      val g = Datasets.get(spark, name, scale)
      assert(components(g) === 1)
      val (s, d, w, r) = resistances(g)
      val err = maxRelErr(r, inverseResistances(g.numVertices.toInt, s, d, w))
      assert(err <= 1e-12, s"max relative error $err")
    }

  test("matches the dense inverse on disconnected graphs to 1e-8") {
    for (g <- disconnected) {
      assert(components(g) > 1, g.name)
      val (s, d, w, r) = resistances(g)
      val err = maxRelErr(r, inverseResistances(g.numVertices.toInt, s, d, w))
      assert(err <= 1e-8, s"${g.name}: max relative error $err")
    }
  }

  test("Foster's theorem: Σ w_e·R_e = n − #components, to 1e-5") {
    val graphs = connected.map { case (name, scale) => Datasets.get(spark, name, scale) } ++ disconnected
    for (g <- graphs) {
      val (_, _, w, r) = resistances(g)
      val want = (g.numVertices - components(g)).toDouble
      val got = w.indices.map(i => w(i) * r(i)).sum
      assert(math.abs(got - want) <= 1e-5 * want, s"${g.name}: Σ w·R = $got, n − c = $want")
    }
  }

  test("every edge of K_n has resistance 2/n (n = 150, three tiles)") {
    val n = 150
    val kn = GraphOps.fromPairs(spark, "K150", for (u <- 0 until n; v <- u + 1 until n) yield (u, v),
      directed = false, n)
    val (_, _, _, r) = resistances(kn)
    assert(r.length === n * (n - 1) / 2)
    r.foreach(x => assert(math.abs(x - 2.0 / n) <= 1e-8 * (2.0 / n), s"R = $x"))
  }

  test("R has identical bits on a 1-thread and a 4-thread pool (com-Amazon@0.25)") {
    val g = Datasets.get(spark, "com-Amazon", 0.25)
    val (s, d, w) = GraphOps.collectEdges(g)
    def digest(pool: ForkJoinPool): String =
      try {
        val r = EffectiveResistance.exact(g.numVertices.toInt, s, d, w, pool)
        val buf = ByteBuffer.allocate(8 * r.length)
        r.foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x)))
        MessageDigest.getInstance("SHA-256").digest(buf.array()).map("%02x".format(_)).mkString
      } finally pool.shutdown()
    assert(digest(new ForkJoinPool(1)) === digest(new ForkJoinPool(4)))
  }
}

object EffectiveResistanceSpec {

  /** The exact oracle: R_uv = M_uu + M_vv − 2M_uv from breeze's LU inverse
    * M of the same matrix L + J/n + εI, ε = 1e-9·n.
    */
  def inverseResistances(n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double]): Array[Double] = {
    val a = DenseMatrix.fill(n, n)(1.0 / n)
    var i = 0
    while (i < n) { a(i, i) += 1e-9 * n; i += 1 }
    i = 0
    while (i < src.length) {
      val (u, v, w) = (src(i), dst(i), wt(i))
      a(u, u) += w; a(v, v) += w; a(u, v) -= w; a(v, u) -= w
      i += 1
    }
    val minv = inv(a)
    Array.tabulate(src.length) { e =>
      val (u, v) = (src(e), dst(e))
      math.max(minv(u, u) + minv(v, v) - 2 * minv(u, v), 0.0)
    }
  }
}
