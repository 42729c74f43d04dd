package repro

import scala.util.Random
import repro.core.{GraphOps, SparkGraph}
import repro.core.sparsifiers.TSpanner
import repro.metrics._

/** Randomized property tests (deterministic seeds) for the pure-math
  * kernels: many random instances per property, checked exhaustively.
  */
class PropertySpec extends SparkSpec {

  /** Canonical random edges on 0 until n: distinct pairs without loops,
    * (min, max) for undirected graphs, sorted, with weights from `wt`.
    */
  private def randomGraph(name: String, rng: Random, n: Int, m: Int, directed: Boolean)(wt: => Double): SparkGraph = {
    val pairs = Seq.fill(m)((rng.nextInt(n), rng.nextInt(n))).collect {
      case (u, v) if u != v => if (directed) (u, v) else (math.min(u, v), math.max(u, v))
    }.distinct.sorted
    SparkGraph.fromCanonical(name, pairs.map(_._1).toArray, pairs.map(_._2).toArray,
      pairs.map(_ => wt).toArray, directed, weighted = true, n)
  }

  private def probVec(rng: Random, n: Int): Array[Double] = {
    val xs = Array.fill(n)(rng.nextDouble())
    val s = xs.sum
    xs.map(_ / s)
  }

  test("bhattacharyya: non-negative, zero iff identical (50 random instances)") {
    val rng = new Random(1)
    (0 until 50).foreach { _ =>
      val p = probVec(rng, 2 + rng.nextInt(60))
      assert(DegreeDistribution.bhattacharyya(p, p) >= 0.0)
      assert(DegreeDistribution.bhattacharyya(p, p) < 1e-9)
    }
  }

  test("bhattacharyya: symmetric (50 random instances)") {
    val rng = new Random(2)
    (0 until 50).foreach { _ =>
      val n = 2 + rng.nextInt(60)
      val p = probVec(rng, n); val q = probVec(rng, n)
      assert(math.abs(DegreeDistribution.bhattacharyya(p, q) -
        DegreeDistribution.bhattacharyya(q, p)) < 1e-9)
    }
  }

  test("topKPrecision: reflexive and bounded (50 random instances)") {
    val rng = new Random(3)
    (0 until 50).foreach { _ =>
      val s = Array.fill(5 + rng.nextInt(100))(rng.nextDouble() * 200 - 100)
      val k = 1 + rng.nextInt(20)
      assert(Centrality.topKPrecision(s, s, k) === 1.0)
      val p = Centrality.topKPrecision(s, s.reverse, k)
      assert(p >= 0.0 && p <= 1.0)
    }
  }

  test("auroc: bounded and antisymmetric under score negation (50 instances)") {
    val rng = new Random(4)
    (0 until 50).foreach { _ =>
      val n = 4 + rng.nextInt(50)
      val s = Array.fill(n)(rng.nextDouble())
      val y = Array.fill(n)(rng.nextBoolean())
      val a = Gnn.auroc(s, y)
      assert(a >= 0.0 && a <= 1.0)
      if (y.exists(identity) && y.exists(!_))
        assert(math.abs(a + Gnn.auroc(s.map(-_), y) - 1.0) < 1e-9)
    }
  }

  test("F1: reflexive, bounded, relabel-invariant (50 random instances)") {
    val rng = new Random(5)
    (0 until 50).foreach { _ =>
      val n = 2 + rng.nextInt(60)
      val a = Array.fill(n)(rng.nextInt(6))
      val b = Array.fill(n)(rng.nextInt(6))
      assert(ClusterF1.f1(a, a) === 1.0)
      val f = ClusterF1.f1(a, b)
      assert(f >= 0.0 && f <= 1.0)
      assert(math.abs(ClusterF1.f1(a.map(_ + 100), b) - f) < 1e-12)
    }
  }

  test("BFS distances satisfy the edge triangle inequality (20 random graphs)") {
    val rng = new Random(6)
    (0 until 20).foreach { it =>
      val n = 5 + rng.nextInt(35)
      val edges = Seq.fill(2 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      if (edges.nonEmpty) {
        val g = GraphOps.fromPairs(spark, s"prop-bfs-$it", edges, directed = false, n)
        val d = new Csr.ShortestPaths(Csr.fromGraph(g), weighted = false).from(edges.head._1)
        edges.foreach { case (u, v) =>
          if (d(u).isFinite || d(v).isFinite) assert(math.abs(d(u) - d(v)) <= 1)
        }
      }
    }
  }

  test("components agree with BFS reachability (20 random graphs)") {
    val rng = new Random(7)
    (0 until 20).foreach { it =>
      val n = 4 + rng.nextInt(20)
      val edges = Seq.fill(n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      if (edges.nonEmpty) {
        val g = GraphOps.fromPairs(spark, s"prop-cc-$it", edges, directed = false, n)
        val c = Csr.fromGraph(g)
        val comp = c.components()
        val d0 = QueueBfs.distances(c, 0)
        (0 until n).foreach(v => assert((comp(v) == comp(0)) === (d0(v) >= 0)))
      }
    }
  }

  test("betweenness matches brute-force pair counting (20 random graphs)") {
    val rng = new Random(11)
    (0 until 20).foreach { it =>
      val n = 3 + rng.nextInt(10)
      val edges = Seq.fill(2 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      val g = GraphOps.fromPairs(spark, s"prop-bc-$it", edges, directed = it % 2 == 1, n)
      // all-pairs BFS hop counts d and shortest-path counts σ on the simple undirected graph
      val adj = Array.tabulate(n)(v => edges.collect { case (a, b) if a == v => b; case (a, b) if b == v => a }.distinct)
      val d = Array.fill(n, n)(-1)
      val sigma = Array.fill(n, n)(0.0)
      (0 until n).foreach { s =>
        d(s)(s) = 0; sigma(s)(s) = 1.0
        var frontier = Seq(s)
        while (frontier.nonEmpty) {
          val next = for (u <- frontier; v <- adj(u) if d(s)(v) < 0 || d(s)(v) == d(s)(u) + 1) yield {
            if (d(s)(v) < 0) d(s)(v) = d(s)(u) + 1
            sigma(s)(v) += sigma(s)(u)
            v
          }
          frontier = next.distinct
        }
      }
      val bc = Centrality.betweenness(g)
      (0 until n).foreach { v =>
        val expected = (for {
          s <- 0 until n; t <- 0 until n
          if s != v && t != v && s != t && d(s)(t) > 0 && d(s)(v) >= 0 && d(v)(t) >= 0
          if d(s)(v) + d(v)(t) == d(s)(t)
        } yield sigma(s)(v) * sigma(v)(t) / sigma(s)(t)).sum
        assert(math.abs(bc(v) - expected) < 1e-9, s"graph $it vertex $v")
      }
    }
  }

  test("max-flow is symmetric on undirected graphs (10 random graphs)") {
    val rng = new Random(8)
    (0 until 10).foreach { it =>
      val n = 5 + rng.nextInt(10)
      val edges = Seq.fill(3 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      if (edges.nonEmpty) {
        val g = GraphOps.fromPairs(spark, s"prop-mf-$it", edges, directed = false, n)
        val net = MaxFlow.network(g)
        val (s, t) = (0, n - 1)
        assert(math.abs(net.maxFlow(s, t) - net.maxFlow(t, s)) < 1e-9)
      }
    }
  }

  test("max-flow is bounded by the endpoint degrees (10 random graphs)") {
    val rng = new Random(9)
    (0 until 10).foreach { it =>
      val n = 5 + rng.nextInt(10)
      val edges = Seq.fill(3 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      if (edges.nonEmpty) {
        val g = GraphOps.fromPairs(spark, s"prop-mfb-$it", edges, directed = false, n)
        val c = Csr.fromGraph(g)
        val f = MaxFlow.network(g).maxFlow(0, n - 1)
        assert(f <= math.min(c.degree(0), c.degree(n - 1)) + 1e-9)
      }
    }
  }

  test("CSR max-flow equals the linked-arc oracle (20 random graphs, half directed)") {
    val rng = new Random(12)
    (0 until 20).foreach { it =>
      val n = 3 + rng.nextInt(28)
      val directed = it % 2 == 1
      val ints = randomGraph(s"prop-mfo-$it", rng, n, 3 * n, directed)((1 + rng.nextInt(5)).toDouble)
      val floats = randomGraph(s"prop-mfo-f-$it", rng, n, 3 * n, directed)(0.5 + 4.5 * rng.nextDouble())
      for (g <- Seq(ints, floats)) {
        val (s, d, w) = GraphOps.collectEdges(g)
        val oracle = new FlowNetwork(n, s, d, w, directed)
        val net = MaxFlow.network(g)
        for (a <- 0 until n; b <- 0 until n) {
          val (got, want) = (net.maxFlow(a, b), oracle.maxFlow(a, b))
          if (g eq ints) assert(got === want, s"graph $it flow $a->$b")
          else assert(math.abs(got - want) <= 1e-12 * want, s"graph $it flow $a->$b: $got vs $want")
        }
      }
    }
  }

  test("t-Spanner keeps the brute-force greedy set (20 random weighted graphs)") {
    val rng = new Random(13)
    (0 until 20).foreach { it =>
      val n = 2 + rng.nextInt(11)
      val t = Seq(2, 3, 5)(it % 3)
      // weights 1 and 2 make exact d_H = t·w ties (a unit triangle at t = 2);
      // float weights do not
      val g = randomGraph(s"prop-sp-$it", rng, n, 4 * n, directed = false)(
        if (it % 2 == 0) (1 + rng.nextInt(2)).toDouble else 0.5 + 4.5 * rng.nextDouble())
      val (s, d, w) = GraphOps.collectEdges(g)
      // greedy: scan by (w, src, dst), keep an edge iff d_H(u, v) > t·w, d_H by Floyd–Warshall
      val dist = Array.tabulate(n, n)((a, b) => if (a == b) 0.0 else Double.PositiveInfinity)
      val brute = s.indices.sortBy(e => (w(e), s(e), d(e))).filter { e =>
        val keep = dist(s(e))(d(e)) > t * w(e)
        if (keep) {
          dist(s(e))(d(e)) = w(e); dist(d(e))(s(e)) = w(e)
          for (k <- 0 until n; a <- 0 until n; b <- 0 until n)
            dist(a)(b) = math.min(dist(a)(b), dist(a)(k) + dist(k)(b))
        }
        keep
      }.map(e => (s(e), d(e))).toSet
      val (hs, hd, _) = GraphOps.collectEdges(new TSpanner(t)(g, 0.5, 0))
      assert(hs.indices.map(i => (hs(i), hd(i))).toSet === brute, s"graph $it, t = $t")
    }
  }

  test("Louvain labels are a valid partition on random graphs (5 instances)") {
    val rng = new Random(10)
    (0 until 5).foreach { it =>
      val n = 10 + rng.nextInt(30)
      val edges = Seq.fill(3 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      val g = GraphOps.fromPairs(spark, s"prop-lv-$it", edges, directed = false, n)
      val labels = Louvain.cluster(g, seed = it)
      assert(labels.length === n)
      assert(labels.forall(_ >= 0))
      // connected vertices in the same component ⇒ labels form ≤ n groups
      assert(Louvain.numCommunities(labels) <= n)
    }
  }

  test("Louvain labels do not depend on the edge order (seeds 0–4)") {
    val rng = new Random(11)
    (0 until 5).foreach { seed =>
      val n = 60 + rng.nextInt(60)
      val g = randomGraph(s"prop-lv-order-$seed", rng, n, 3 * n, directed = false)(1.0)
      val (s, d, w) = GraphOps.collectEdges(g)
      val perm = rng.shuffle(s.indices.toVector).toArray
      val h = SparkGraph.fromCanonical(s"prop-lv-perm-$seed", perm.map(s), perm.map(d), perm.map(w),
        directed = false, weighted = false, n)
      assert(Louvain.cluster(h, seed).toSeq === Louvain.cluster(g, seed).toSeq, s"seed $seed")
    }
  }
}
