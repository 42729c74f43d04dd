package repro.core.sparsifiers

import java.util.concurrent.ForkJoinPool
import scala.util.Random
import repro.SparkSpec
import repro.core.{DriverPool, SparkGraph}

/** The sparse-elimination resistances against the dense solve they
  * replaced, on random graphs that cover each path of the solve: a partly
  * eliminated graph, components and isolated vertices, a tree (no tail), a
  * complete graph (nothing eliminated) and a star.
  */
class SparseResistanceSpec extends SparkSpec {
  import SparseResistanceSpec.Instance

  /** Canonical edges: distinct (min, max) pairs without loops, sorted. */
  private def instance(kind: String, n: Int, pairs: Seq[(Int, Int)], rng: Random, weighted: Boolean): Instance = {
    val es = pairs.collect { case (u, v) if u != v => (math.min(u, v), math.max(u, v)) }.distinct.sorted
    Instance(kind, n, es.map(_._1).toArray, es.map(_._2).toArray,
      es.map(_ => if (weighted) 0.25 + 4 * rng.nextDouble() else 1.0).toArray)
  }

  /** A random tree on `vs` plus `extra` random edges among them. */
  private def connected(rng: Random, vs: IndexedSeq[Int], extra: Int): Seq[(Int, Int)] =
    vs.indices.drop(1).map(i => (vs(rng.nextInt(i)), vs(i))) ++
      Seq.fill(extra)((vs(rng.nextInt(vs.length)), vs(rng.nextInt(vs.length))))

  /** Preferential attachment: a dense core that stays as the tail, and a
    * sparse periphery that is eliminated around it.
    */
  private def attachment(rng: Random, vs: IndexedSeq[Int], per: Int): Seq[(Int, Int)] = {
    val ends = scala.collection.mutable.ArrayBuffer(vs(0), vs(1))
    val out = scala.collection.mutable.ArrayBuffer((vs(0), vs(1)))
    for (i <- 2 until vs.length; _ <- 0 until math.min(per, i)) {
      val e = (ends(rng.nextInt(ends.length)), vs(i))
      out += e; ends += e._1; ends += e._2
    }
    out.toSeq
  }

  private lazy val instances: Seq[Instance] = (0 until 20).map { i =>
    val rng = new Random(1000 + i)
    i % 6 match {
      case 0 =>
        val n = 80 + rng.nextInt(220)
        instance("weighted", n, connected(rng, 0 until n, 2 * n), rng, weighted = true)
      case 1 =>
        // three components of different kinds, then isolated vertices
        val n = 120 + rng.nextInt(120)
        val cut = Seq(0, n / 3, n / 2, n - 10)
        val parts = Seq(connected(rng, cut(0) until cut(1), n / 3), attachment(rng, cut(1) until cut(2), 4),
          connected(rng, cut(2) until cut(3), 0))
        instance("disconnected", n, parts.flatten, rng, weighted = rng.nextBoolean())
      case 2 =>
        val n = 50 + rng.nextInt(250)
        instance("tree", n, connected(rng, 0 until n, 0), rng, weighted = true)
      case 3 =>
        val n = SparseElimination.MaxDegree + 3 + rng.nextInt(60)
        instance("complete", n, for (u <- 0 until n; v <- u + 1 until n) yield (u, v), rng, weighted = rng.nextBoolean())
      case 4 =>
        val n = 10 + rng.nextInt(300)
        val hub = rng.nextInt(n)
        instance("star", n, (0 until n).map(v => (hub, v)), rng, weighted = true)
      case _ =>
        val n = 200 + rng.nextInt(300)
        instance("core", n, attachment(rng, 0 until n, 1 + rng.nextInt(3)), rng, weighted = rng.nextBoolean())
    }
  }

  private def graph(x: Instance, name: String): SparkGraph =
    SparkGraph.fromCanonical(name, x.src, x.dst, x.wt, directed = false, weighted = true, x.n)

  private def onPool[A](threads: Int)(f: ForkJoinPool => A): A = {
    val pool = new ForkJoinPool(threads)
    try f(pool) finally pool.shutdown()
  }

  test("matches the dense oracle on 20 random graphs to 1e-12") {
    assert(instances.map(_.kind).distinct.length === 6)
    for ((x, i) <- instances.zipWithIndex) {
      val got = EffectiveResistance.exact(x.n, x.src, x.dst, x.wt, DriverPool.shared)
      val want = DenseResistance.exact(x.n, x.src, x.dst, x.wt, DriverPool.shared)
      val err = got.indices.map(e => math.abs(got(e) - want(e)) / want(e)).max
      assert(err <= 1e-12, s"instance $i (${x.kind}, n = ${x.n}, m = ${x.src.length}): max relative error $err")
    }
  }

  test("a tree has no dense tail; nothing of a complete graph is eliminated") {
    for ((x, i) <- instances.zipWithIndex if x.kind == "tree")
      EffectiveResistance.resistances(graph(x, s"er-tree-$i"), 0)
    for ((x, i) <- instances.zipWithIndex if x.kind == "complete") {
      // one ground vertex; the other n − 1 each keep n − 2 > MaxDegree neighbours
      val err = intercept[IllegalArgumentException](EffectiveResistance.resistances(graph(x, s"er-complete-$i"), x.n - 2))
      assert(err.getMessage.contains(s"t = ${x.n - 1}"), err.getMessage)
    }
  }

  test("R has identical bits on a 1-thread and a 4-thread pool (20 random graphs)") {
    for ((x, i) <- instances.zipWithIndex) {
      val one = onPool(1)(EffectiveResistance.exact(x.n, x.src, x.dst, x.wt, _))
      val four = onPool(4)(EffectiveResistance.exact(x.n, x.src, x.dst, x.wt, _))
      assert(one.map(java.lang.Double.doubleToRawLongBits).sameElements(four.map(java.lang.Double.doubleToRawLongBits)),
        s"instance $i (${x.kind})")
    }
  }

  test(s"a star K_{1,7999} is solved past the dense cap (n > ${EffectiveResistance.MaxDenseN}): R ≈ 1") {
    val n = 8000
    val star = SparkGraph.fromCanonical("er-star-8000", Array.fill(n - 1)(0), Array.tabulate(n - 1)(_ + 1),
      Array.fill(n - 1)(1.0), directed = false, weighted = false, n)
    val (_, _, _, r) = EffectiveResistance.resistances(star, EffectiveResistance.MaxDenseN)
    assert(r.length === n - 1)
    r.foreach(x => assert(math.abs(x - 1) <= 1e-5, s"R = $x"))
  }
}

object SparseResistanceSpec {
  private final case class Instance(kind: String, n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double])
}
