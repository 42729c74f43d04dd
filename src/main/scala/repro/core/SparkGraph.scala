package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import scala.util.hashing.MurmurHash3
import repro.metrics.Csr

/** Edge-list graph: a Spark DataFrame of edges plus the same edges as
  * driver arrays.
  *
  * Schema of `edges`: (src: Long, dst: Long, weight: Double).
  *
  * Invariants (enforced by [[GraphOps.canonicalize]]):
  *   - no self loops, no duplicate edges;
  *   - undirected graphs store each edge once with `src < dst`.
  *
  * Vertex ids are `0 until numVertices`; vertices may be isolated (appear in
  * no edge) — sparsification keeps the vertex set fixed (edge sparsification
  * only, §2.1 of the paper).
  *
  * A graph is one fixed value, and its edges reach the driver at most once:
  *   - built from a DataFrame plan ([[SparkGraph.apply]]: the datasets),
  *     it runs that plan once, on the first call to `numEdges`,
  *     [[GraphOps.collectEdges]] or `Csr.fromGraph`, and keeps the rows in
  *     the plan's collect order;
  *   - built from canonical driver arrays ([[SparkGraph.fromCanonical]]:
  *     every sparsifier's output and the symmetrized view), it starts
  *     no Spark job for them, and creates its `edges` DataFrame only when a
  *     Catalyst consumer asks for it.
  * The driver CSR of each view is built from those arrays at most once.
  *
  * @param name display name; caches key on [[fingerprint]], not on it
  */
final class SparkGraph private (
    val name: String,
    val spark: SparkSession,
    source: Either[DataFrame, (Array[Int], Array[Int], Array[Double])],
    val directed: Boolean,
    val weighted: Boolean,
    val numVertices: Long) {

  /** The edge plan, or for an array-built graph a local relation of its
    * arrays, in array order.
    */
  lazy val edges: DataFrame = source.fold(identity, { case (src, dst, wt) =>
    import spark.implicits._
    src.indices.map(i => (src(i).toLong, dst(i).toLong, wt(i))).toDF("src", "dst", "weight")
  })

  /** Canonical edges on the driver (src, dst, weight). Read-only. */
  private[core] lazy val arrays: (Array[Int], Array[Int], Array[Double]) = source.fold(plan => {
    require(numVertices <= 2_000_000, s"graph $name too large for driver collection")
    val rows = plan.select("src", "dst", "weight").collect()
    val s = new Array[Int](rows.length)
    val d = new Array[Int](rows.length)
    val w = new Array[Double](rows.length)
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      s(i) = r.getLong(0).toInt; d(i) = r.getLong(1).toInt; w(i) = r.getDouble(2)
      i += 1
    }
    (s, d, w)
  }, identity)

  private lazy val bothCsr = Csr.fromArrays(numVertices.toInt, arrays._1, arrays._2, arrays._3, bothDirections = true)
  private lazy val outCsr = Csr.fromArrays(numVertices.toInt, arrays._1, arrays._2, arrays._3, bothDirections = false)

  /** The graph's driver CSR: every edge in both directions, or out-arcs only. */
  private[repro] def csr(bothDirections: Boolean): Csr = if (bothDirections) bothCsr else outCsr

  /** The simple undirected graph (paper §3.1 step 2): a directed graph's
    * reciprocal arcs u→v, v→u merged into one edge of the larger weight,
    * edges ordered by (min endpoint, max endpoint). Built on the driver at
    * most once; an undirected graph is its own symmetrization.
    */
  private[repro] lazy val symmetrized: SparkGraph =
    if (!directed) this
    else {
      val (s, d, w) = arrays
      val n = numVertices
      val byPair = mutable.LongMap.empty[Double]
      var i = 0
      while (i < s.length) {
        val key = math.min(s(i), d(i)) * n + math.max(s(i), d(i))
        byPair(key) = math.max(byPair.getOrElse(key, Double.NegativeInfinity), w(i))
        i += 1
      }
      val keys = byPair.keys.toArray.sorted
      SparkGraph.fromCanonical(spark, s"$name#und", keys.map(k => (k / n).toInt), keys.map(k => (k % n).toInt),
        keys.map(byPair), directed = false, weighted, numVertices)
    }

  /** Number of (canonical) edges. */
  def numEdges: Long = arrays._1.length

  /** Content identity: two graphs with equal fingerprints have the same
    * vertex count, direction and edge arrays (up to hash collisions).
    */
  private[repro] lazy val fingerprint: SparkGraph.Fingerprint = {
    val (s, d, w) = arrays
    SparkGraph.Fingerprint(numVertices, s.length, directed,
      MurmurHash3.arrayHash(s), MurmurHash3.arrayHash(d), MurmurHash3.arrayHash(w))
  }
}

object SparkGraph {

  final case class Fingerprint(n: Long, m: Int, directed: Boolean, src: Int, dst: Int, weight: Int)

  /** A graph over a DataFrame plan whose rows are canonical. */
  def apply(name: String, edges: DataFrame, directed: Boolean, weighted: Boolean, numVertices: Long): SparkGraph =
    new SparkGraph(name, edges.sparkSession, Left(edges), directed, weighted, numVertices)

  /** A graph over driver arrays that are already canonical, such as a subset
    * of another graph's edges. The arrays are kept, not copied.
    */
  def fromCanonical(
      spark: SparkSession,
      name: String,
      src: Array[Int],
      dst: Array[Int],
      weight: Array[Double],
      directed: Boolean,
      weighted: Boolean,
      numVertices: Long): SparkGraph =
    new SparkGraph(name, spark, Right((src, dst, weight)), directed, weighted, numVertices)
}

/** Pure DataFrame transformations over [[SparkGraph]]s. */
object GraphOps {

  /** Dedupe, drop self loops, and canonicalize orientation for undirected
    * graphs (src < dst). Duplicate edges keep the max weight.
    */
  def canonicalize(edges: DataFrame, directed: Boolean): DataFrame = {
    val noLoop = edges.filter(col("src") =!= col("dst"))
    val oriented =
      if (directed) noLoop
      else noLoop.select(
        least(col("src"), col("dst")) as "src",
        greatest(col("src"), col("dst")) as "dst",
        col("weight"))
    oriented.groupBy("src", "dst").agg(max("weight") as "weight")
  }

  /** Undirected version of a directed graph (paper §3.1 step 2), the
    * graph's cached [[SparkGraph.symmetrized]] view. No-op for undirected
    * graphs.
    */
  def symmetrize(g: SparkGraph): SparkGraph = g.symmetrized

  /** The graph's edges as driver arrays (src, dst, weight) — the substrate
    * for inherently sequential algorithms. Collected at most once per graph
    * (see [[SparkGraph]]); the arrays are shared, so callers must not write
    * to them.
    */
  def collectEdges(g: SparkGraph): (Array[Int], Array[Int], Array[Double]) = g.arrays

  /** The graph over the edges at indices `idx` (into [[collectEdges]]), in
    * `idx` order. A subset of canonical edges is canonical, so no Spark job
    * runs.
    */
  def subgraph(g: SparkGraph, idx: Array[Int], suffix: String): SparkGraph = {
    val (s, d, w) = collectEdges(g)
    val (ks, kd, kw) = (new Array[Int](idx.length), new Array[Int](idx.length), new Array[Double](idx.length))
    var i = 0
    while (i < idx.length) { val e = idx(i); ks(i) = s(e); kd(i) = d(e); kw(i) = w(e); i += 1 }
    SparkGraph.fromCanonical(g.spark, s"${g.name}#$suffix", ks, kd, kw,
      g.directed, g.weighted, g.numVertices)
  }

  /** Build a SparkGraph from driver-side arrays that may not be canonical
    * (duplicates, self loops, either orientation): canonicalized by a
    * Spark plan that runs once, when the graph is first materialized.
    */
  def fromArrays(
      spark: SparkSession,
      name: String,
      src: Array[Int],
      dst: Array[Int],
      weight: Array[Double],
      directed: Boolean,
      weighted: Boolean,
      numVertices: Long): SparkGraph = {
    import spark.implicits._
    val df = src.indices
      .map(i => (src(i).toLong, dst(i).toLong, weight(i)))
      .toDF("src", "dst", "weight")
    SparkGraph(name, canonicalize(df, directed), directed, weighted, numVertices)
  }

  /** Unweighted convenience overload (all weights 1). */
  def fromPairs(
      spark: SparkSession,
      name: String,
      pairs: Seq[(Int, Int)],
      directed: Boolean,
      numVertices: Long): SparkGraph =
    fromArrays(spark, name, pairs.map(_._1).toArray, pairs.map(_._2).toArray,
      Array.fill(pairs.length)(1.0), directed, weighted = false, numVertices)
}
