package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import scala.util.hashing.MurmurHash3
import repro.metrics.Csr

/** Edge-list graph: an immutable driver value of canonical edge arrays
  * (src, dst, weight).
  *
  * Invariants (enforced by [[GraphOps.canonicalize]]):
  *   - no self loops, no duplicate edges;
  *   - undirected graphs store each edge once with `src < dst`.
  *
  * Vertex ids are `0 until numVertices`; vertices may be isolated (appear in
  * no edge) — sparsification keeps the vertex set fixed (edge sparsification
  * only, §2.1 of the paper).
  *
  * Every graph is built from canonical arrays ([[SparkGraph.fromCanonical]]);
  * a dataset's arrays come from the one Spark plan in [[GraphOps.fromArrays]],
  * run once when the graph is built. The driver CSR of each view and the
  * symmetrized graph are built from those arrays at most once.
  *
  * @param name display name; caches key on [[fingerprint]], not on it
  */
final class SparkGraph private (
    val name: String,
    private[core] val arrays: (Array[Int], Array[Int], Array[Double]),
    val directed: Boolean,
    val weighted: Boolean,
    val numVertices: Long) {

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
      SparkGraph.fromCanonical(s"$name#und", keys.map(k => (k / n).toInt), keys.map(k => (k % n).toInt),
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

  /** A graph over driver arrays that are already canonical, such as a subset
    * of another graph's edges. The arrays are kept, not copied.
    */
  def fromCanonical(
      name: String,
      src: Array[Int],
      dst: Array[Int],
      weight: Array[Double],
      directed: Boolean,
      weighted: Boolean,
      numVertices: Long): SparkGraph =
    new SparkGraph(name, (src, dst, weight), directed, weighted, numVertices)
}

/** Building [[SparkGraph]]s, and reading their edges. */
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

  /** The graph's edges as driver arrays (src, dst, weight) — the substrate
    * for inherently sequential algorithms. The arrays are shared, so callers
    * must not write to them.
    */
  def collectEdges(g: SparkGraph): (Array[Int], Array[Int], Array[Double]) = g.arrays

  /** The graph over the edges at indices `idx` (into [[collectEdges]]), in
    * `idx` order. A subset of canonical edges is canonical.
    */
  def subgraph(g: SparkGraph, idx: Array[Int], suffix: String): SparkGraph = {
    val (s, d, w) = collectEdges(g)
    val (ks, kd, kw) = (new Array[Int](idx.length), new Array[Int](idx.length), new Array[Double](idx.length))
    var i = 0
    while (i < idx.length) { val e = idx(i); ks(i) = s(e); kd(i) = d(e); kw(i) = w(e); i += 1 }
    SparkGraph.fromCanonical(s"${g.name}#$suffix", ks, kd, kw, g.directed, g.weighted, g.numVertices)
  }

  /** Build a SparkGraph from driver-side arrays that may not be canonical
    * (duplicates, self loops, either orientation): [[canonicalize]] runs as
    * a Spark plan, collected once inside this call, and the graph keeps its
    * rows in the plan's collect order.
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
    require(numVertices <= 2_000_000, s"graph $name too large for driver collection")
    val df = src.indices
      .map(i => (src(i).toLong, dst(i).toLong, weight(i)))
      .toDF("src", "dst", "weight")
    val rows = canonicalize(df, directed).select("src", "dst", "weight").collect()
    val s = new Array[Int](rows.length)
    val d = new Array[Int](rows.length)
    val w = new Array[Double](rows.length)
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      s(i) = r.getLong(0).toInt; d(i) = r.getLong(1).toInt; w(i) = r.getDouble(2)
      i += 1
    }
    SparkGraph.fromCanonical(name, s, d, w, directed, weighted, numVertices)
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
