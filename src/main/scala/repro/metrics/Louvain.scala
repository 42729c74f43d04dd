package repro.metrics

import scala.collection.mutable
import scala.util.Random
import repro.core.SparkGraph

/** Louvain community detection (Blondel et al. 2008) — the clustering
  * substrate for the paper's #communities (Fig 8) and clustering-F1
  * (Fig 10) metrics. Standard two-phase modularity optimization on the
  * weighted undirected view; vertex visit order is seeded-random, so runs
  * are reproducible but (as in the paper) inherently randomized. Every
  * level is a [[Csr]], and ties are broken canonically, so the partition
  * follows the edge set and the seed, not the order of the arcs.
  */
object Louvain {

  /** Community label per vertex. Isolated vertices get singleton labels. */
  def cluster(g: SparkGraph, seed: Long = 0): Array[Int] = {
    var c = Csr.fromGraph(g, symmetric = true)
    // labels(x): the node of the current level that vertex x belongs to
    val labels = Array.range(0, c.n)
    // selfW(v) = 2 × internal weight of the vertex-set v aggregates (counts
    // toward its weighted degree k_i but never toward links to OTHER
    // communities) — dropping it makes later passes over-merge. No level
    // has self-arcs: the graph has none, and contraction moves them here.
    var selfW = new Array[Double](c.n)
    val rng = new Random(seed)
    val m2 = c.wts.sum
    if (m2 <= 0) return labels

    var moved = true
    while (moved) {
      moved = false
      val n = c.n
      val (off, nbrs, wts) = (c.offsets, c.nbrs, c.wts)
      val ki = Array.tabulate(n) { v =>
        var k = selfW(v); var a = off(v)
        while (a < off(v + 1)) { k += wts(a); a += 1 }
        k
      }
      val comm = Array.range(0, n)
      val commTot = ki.clone()
      // links(k): weight from the visited vertex into community k, for the
      // communities in touched(0 until nTouched); -1 for every other k
      val links = Array.fill(n)(-1.0)
      val touched = new Array[Int](n)
      val visit = new Array[Int](n)
      var improved = true
      var rounds = 0
      while (improved && rounds < 32) {
        improved = false
        var i = 0
        while (i < n) { visit(i) = i; i += 1 }
        Csr.shuffle(rng, visit, n) // the order scala.util.Random.shuffle gives 0 until n
        i = 0
        while (i < n) {
          val v = visit(i)
          val cv = comm(v)
          var nTouched = 0
          var a = off(v)
          while (a < off(v + 1)) {
            val cu = comm(nbrs(a))
            if (links(cu) < 0) { links(cu) = 0.0; touched(nTouched) = cu; nTouched += 1 }
            links(cu) += wts(a)
            a += 1
          }
          commTot(cv) -= ki(v)
          def gain(k: Int): Double = math.max(links(k), 0.0) - ki(v) * commTot(k) / m2
          // v stays unless a move gains more than 1e-12 over staying; else it
          // joins the smallest community id within 1e-12 of the best gain
          var best = gain(cv)
          var t = 0
          while (t < nTouched) { best = math.max(best, gain(touched(t))); t += 1 }
          var to = cv
          if (gain(cv) < best - 1e-12) {
            to = Int.MaxValue; t = 0
            while (t < nTouched) { val k = touched(t); if (k < to && gain(k) >= best - 1e-12) to = k; t += 1 }
          }
          t = 0
          while (t < nTouched) { links(touched(t)) = -1.0; t += 1 }
          commTot(to) += ki(v)
          if (to != cv) { comm(v) = to; improved = true; moved = true }
          i += 1
        }
        rounds += 1
      }

      if (moved) { // Phase 2: contract communities into super-nodes, in id order
        val ids = comm.distinct.sorted
        val id = new Array[Int](n)
        ids.indices.foreach(i => id(ids(i)) = i)
        labels.mapInPlace(x => id(comm(x)))
        val nself = new Array[Double](ids.length)
        val (src, dst, wt) = (Array.newBuilder[Int], Array.newBuilder[Int], Array.newBuilder[Double])
        for (v <- 0 until n) {
          val cv = id(comm(v))
          nself(cv) += selfW(v)
          var a = off(v)
          while (a < off(v + 1)) {
            val cu = id(comm(nbrs(a)))
            if (cu != cv) { src += cv; dst += cu; wt += wts(a) }
            else nself(cv) += wts(a) // intra arcs appear twice ⇒ nself = 2×internal
            a += 1
          }
        }
        c = Csr.fromArrays(ids.length, src.result(), dst.result(), wt.result(), bothDirections = false)
        selfW = nself
        moved = ids.length < n
      }
    }
    labels
  }

  def numCommunities(labels: Array[Int]): Int = labels.distinct.length
}

/** Clustering F1 similarity (§2.2.4).
  *
  * [[f1]] is the symmetric average best-match F1 (Yang–Leskovec style):
  * each cluster is matched to the reference cluster maximizing their
  * pairwise F1 = 2|C∩R|/(|C|+|R|), size-weighted, averaged over both
  * directions. [[f1PaperFormula]] is the formula as PRINTED in §2.2.4 —
  * kept for reference, but degenerate: a clustering shattered into
  * singletons scores precision = recall = 1 (every max_j{a_ij} = 1 and
  * Σmax = n), so aggressive disconnectors like G-Spar/SCAN would "win"
  * Fig 10 under it. The best-match variant penalizes shattering and
  * reproduces the paper's reported shape, so it is what the framework uses.
  */
object ClusterF1 {

  private def byCluster(labels: Array[Int]): Map[Int, Array[Int]] =
    labels.indices.groupBy(labels(_)).map { case (c, vs) => c -> vs.toArray }

  /** One direction: size-weighted mean over clusters of the best pairwise
    * F1 against any reference cluster.
    */
  private def directional(cs: Map[Int, Array[Int]], rs: Map[Int, Array[Int]],
                          refOf: Int => Int): Double = {
    val n = cs.values.map(_.length).sum.toDouble
    cs.values.map { members =>
      // candidate reference clusters: those overlapping this cluster
      val counts = mutable.Map.empty[Int, Int]
      members.foreach(v => counts(refOf(v)) = counts.getOrElse(refOf(v), 0) + 1)
      val best = counts.map { case (r, inter) =>
        2.0 * inter / (members.length + rs(r).length)
      }.max
      best * members.length
    }.sum / n
  }

  /** Symmetric average best-match F1 in [0, 1]; 1 iff identical partitions. */
  def f1(clusters: Array[Int], reference: Array[Int]): Double = {
    require(clusters.length == reference.length)
    if (clusters.isEmpty) return 0.0
    val cs = byCluster(clusters); val rs = byCluster(reference)
    val a = directional(cs, rs, reference(_))
    val b = directional(rs, cs, clusters(_))
    (a + b) / 2
  }

  /** The §2.2.4 formula verbatim (see object doc for why it is not used). */
  def f1PaperFormula(clusters: Array[Int], reference: Array[Int]): Double = {
    require(clusters.length == reference.length)
    val n = clusters.length
    if (n == 0) return 0.0
    val a = mutable.Map.empty[Int, mutable.Map[Int, Long]]
    var v = 0
    while (v < n) {
      val row = a.getOrElseUpdate(clusters(v), mutable.Map.empty)
      row(reference(v)) = row.getOrElse(reference(v), 0L) + 1
      v += 1
    }
    val sumMax = a.values.map(_.values.max).sum.toDouble
    val total = a.values.map(_.values.sum).sum.toDouble
    val precision = sumMax / total
    val recall = sumMax / n
    if (precision + recall <= 0) 0.0 else 2 * precision * recall / (precision + recall)
  }
}
