package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.sparsifiers._
import repro.graphs.Datasets
import repro.metrics.{Csr, QuadraticForm, QueueBfs}

/** Algorithm-specific behaviour: the guarantees each sparsifier advertises
  * in §2.3 (connectivity, stretch bounds, score ordering, hub bias …).
  */
class SparsifierBehaviorSpec extends SparkSpec {

  private lazy val fb = Datasets.get(spark, "ego-Facebook", 0.2)

  /** Total degree of every vertex, from the graph's symmetric CSR. */
  private def degrees(g: SparkGraph): IndexedSeq[Int] = {
    val c = Csr.fromGraph(g)
    (0 until c.n).map(c.degree)
  }

  private def isolatedAfter(g: SparkGraph, h: SparkGraph): Int =
    degrees(h).count(_ == 0) - degrees(g).count(_ == 0)

  private def keptPairs(h: SparkGraph): Set[(Int, Int)] = {
    val (s, d, _) = GraphOps.collectEdges(h)
    s.indices.map(i => (s(i), d(i))).toSet
  }

  // ---- K-Neighbor / Local Degree / local similarity: ≥1 edge per vertex
  // of an undirected graph ----
  for (sp <- Seq(Sparsifiers.kNeighbor, Sparsifiers.localDegree,
                 Sparsifiers.localSimilarity, Sparsifiers.lSpar))
    test(s"${sp.abbrev}: creates no isolated vertices at moderate prune rates") {
      val h = sp(fb, 0.5, seed = 1)
      assert(isolatedAfter(fb, h) === 0, s"${sp.name} isolated vertices")
    }

  test("KN: per-vertex cap — kept degree ≤ selection level bound holds at high rho") {
    val kn = new KNeighbor
    val h = kn(fb, 0.8, seed = 2)
    val lvls = kn.levels(fb, seed = 2)
    // the kept set is exactly the edges some endpoint ranks ≤ k, k the
    // smallest level whose cumulative count meets the target
    val target = math.round((1.0 - 0.8) * fb.numEdges)
    val k = lvls.distinct.sorted.find(l => lvls.count(_ <= l) >= target).get
    val (s, d, _) = GraphOps.collectEdges(fb)
    assert(keptPairs(h) === s.indices.filter(lvls(_) <= k).map(i => (s(i), d(i))).toSet)
    assert(isolatedAfter(fb, h) === 0)
  }

  test("KN: a directed graph's sinks can lose every in-edge (vertices rank out-arcs only)") {
    // 0→{1,2,3}: only 0 ranks arcs, so its levels are 1, 2, 3 and one edge is kept
    val star = GraphOps.fromPairs(spark, "out-star", Seq((0, 1), (0, 2), (0, 3)), directed = true, 4)
    for (seed <- 0L to 4L) {
      val h = Sparsifiers.kNeighbor(star, 0.6, seed)
      assert(h.numEdges === 1)
      assert(isolatedAfter(star, h) === 2)
    }
  }

  test("KN: the same edges in another order keep the same set") {
    val (s, d, w) = GraphOps.collectEdges(fb)
    val reversed = SparkGraph.fromCanonical("fb-reversed", s.reverse, d.reverse, w.reverse,
      fb.directed, fb.weighted, fb.numVertices)
    for (rho <- Seq(0.3, 0.7))
      assert(keptPairs(Sparsifiers.kNeighbor(reversed, rho, seed = 7)) ===
        keptPairs(Sparsifiers.kNeighbor(fb, rho, seed = 7)))
  }

  test("KN: levels match DuckDB oracle") {
    import spark.implicits._
    val kn = new KNeighbor
    for (g <- Seq(Datasets.get(spark, "ca-HepPh", 0.08), Datasets.get(spark, "ego-Twitter", 0.05))) {
      val (s, d, w) = GraphOps.collectEdges(g)
      val lvls = kn.levels(g, seed = 5)
      val arcs = s.indices.flatMap { i =>
        val fwd = (s(i).toLong, d(i).toLong, kn.key(5, s(i), d(i), w(i)))
        if (g.directed) Seq(fwd) else Seq(fwd, (d(i).toLong, s(i).toLong, kn.key(5, d(i), s(i), w(i))))
      }
      val (lo, hi) = if (g.directed) ("u", "v") else ("LEAST(u, v)", "GREATEST(u, v)")
      Oracle.assertEquivalent(
        s.indices.map(i => (s(i).toLong, d(i).toLong, lvls(i).toLong)).toDF("src", "dst", "lvl"),
        s"""WITH a AS (SELECT CAST(u AS BIGINT) AS u, CAST(v AS BIGINT) AS v,
           |                  CAST(key AS DOUBLE) AS key FROM arcs),
           |ranked AS (SELECT u, v, ROW_NUMBER() OVER (PARTITION BY u ORDER BY key DESC, v) AS rnk FROM a)
           |SELECT $lo AS src, $hi AS dst, MIN(rnk) AS lvl FROM ranked GROUP BY 1, 2""".stripMargin,
        "arcs" -> arcs.toDF("u", "v", "key"))
    }
  }

  // ---- Spanning Forest ----
  test("SF: output is a forest (|E| = n − #components)") {
    val h = Sparsifiers.spanningForest(fb, 0.5, 0)
    val comps = Csr.fromGraph(h, symmetric = true).components()
    val nComp = comps.distinct.length
    assert(h.numEdges === h.numVertices - nComp)
  }

  test("SF: preserves the component structure exactly") {
    val g = Datasets.get(spark, "email-Enron", 0.15) // disconnected
    val h = Sparsifiers.spanningForest(g, 0.5, 0)
    val co = Csr.fromGraph(g, symmetric = true).components()
    val ch = Csr.fromGraph(h, symmetric = true).components()
    // same partition: every original component maps to exactly one in h
    val mapping = co.zip(ch).distinct
    assert(mapping.map(_._1).distinct.length === mapping.length)
    assert(co.distinct.length === ch.distinct.length)
  }

  test("SF: spanning tree of a connected graph has n-1 edges") {
    val h = Sparsifiers.spanningForest(fb, 0.5, 0)
    assert(h.numEdges === fb.numVertices - 1)
  }

  // ---- t-Spanner ----
  test("SP-3: pairwise distances stretched at most t=3") {
    val g = Datasets.get(spark, "ca-HepPh", 0.08)
    val h = Sparsifiers.tSpanner(g, 0.5, 0)
    val cg = Csr.fromGraph(g, symmetric = true)
    val chh = Csr.fromGraph(h, symmetric = true)
    val rng = new scala.util.Random(7)
    (0 until 30).foreach { _ =>
      val s = rng.nextInt(cg.n)
      val dg = QueueBfs.distances(cg, s); val dh = QueueBfs.distances(chh, s)
      dg.indices.foreach { v =>
        if (dg(v) >= 0) {
          assert(dh(v) >= 0, s"spanner disconnected $s->$v")
          assert(dh(v) <= 3 * dg(v), s"stretch violated: d_G=${dg(v)} d_H=${dh(v)}")
        }
      }
    }
  }

  test("SP-t: larger t prunes more") {
    val g = Datasets.get(spark, "ca-HepPh", 0.08)
    val h3 = new TSpanner(3)(g, 0.5, 0)
    val h7 = new TSpanner(7)(g, 0.5, 0)
    assert(h7.numEdges <= h3.numEdges)
  }

  // ---- similarity-based global sparsifiers ----
  /** Kept and dropped edges' scores: the smallest kept is at least the largest dropped. */
  private def assertKeepsTop(h: SparkGraph, score: Array[Double]): Unit = {
    val kept = keptPairs(h)
    val (s, d, _) = GraphOps.collectEdges(fb)
    val (inS, outS) = s.indices.partition(i => kept.contains((s(i), d(i))))
    assert(inS.map(score).min >= outS.map(score).max - 1e-12)
  }

  test("GS: min kept jaccard ≥ max dropped jaccard") {
    assertKeepsTop(Sparsifiers.gSpar(fb, 0.5, 0), SimilarityScores.forGraph(fb).jaccard)
  }

  test("SCAN: min kept scan score ≥ max dropped scan score") {
    assertKeepsTop(Sparsifiers.scan(fb, 0.5, 0), SimilarityScores.forGraph(fb).scan)
  }

  // ---- Local Degree hub bias ----
  test("LD: hubs retain proportionally more edges than leaves") {
    val h = Sparsifiers.localDegree(fb, 0.7, 0)
    val degO = degrees(fb)
    val degH = degrees(h)
    val hubs = degO.indices.sortBy(-degO(_)).take(10)
    val hubKeep = hubs.map(v => degH(v).toDouble / degO(v)).sum / hubs.size
    val overall = 1.0 - 0.7
    assert(hubKeep > overall, f"hub keep rate $hubKeep%.2f not above overall ${overall}%.2f")
  }

  test("LD: edges into a directed graph's sinks can be kept") {
    // 2's only out-neighbour is the sink 3, so 2→3 is 2's rank-1 edge
    val path = GraphOps.fromPairs(spark, "path-dir", Seq((0, 1), (1, 2), (2, 3)), directed = true, 4)
    val h = Sparsifiers.localDegree(path, 0.1, 0)
    assert(h.numEdges === 3) // round(0.9 · 3): achieved ρ 0, the target's nearest
  }

  test("LD: rank exponents match DuckDB oracle") {
    import spark.implicits._
    for (g <- Seq(Datasets.get(spark, "ca-HepPh", 0.08), Datasets.get(spark, "ego-Twitter", 0.05))) {
      val (s, d, _) = GraphOps.collectEdges(g)
      val out = Csr.fromGraph(g, symmetric = false)
      assert(!g.directed || d.exists(out.degree(_) == 0), "the directed input should have a sink")
      val exp = new LocalDegree().exponents(g)
      val reverse = if (g.directed) "" else "UNION ALL SELECT dst AS u, src AS v FROM e"
      val (lo, hi) = if (g.directed) ("u", "v") else ("LEAST(u, v)", "GREATEST(u, v)")
      Oracle.assertEquivalent(
        s.indices.map(i => (s(i).toLong, d(i).toLong, exp(i))).toDF("src", "dst", "minexp"),
        s"""WITH e AS (SELECT CAST(src AS BIGINT) AS src, CAST(dst AS BIGINT) AS dst FROM edges),
           |arcs AS (SELECT src AS u, dst AS v FROM e $reverse),
           |deg AS (SELECT u AS v, COUNT(*) AS d FROM arcs GROUP BY u),
           |ranked AS (
           |  SELECT a.u, a.v, du.d AS degu,
           |    ROW_NUMBER() OVER (PARTITION BY a.u ORDER BY COALESCE(dv.d, 0) DESC, a.v) AS rnk
           |  FROM arcs a JOIN deg du ON du.v = a.u LEFT JOIN deg dv ON dv.v = a.v)
           |SELECT $lo AS src, $hi AS dst,
           |  MIN(CASE WHEN rnk = 1 THEN 0.0 ELSE LN(rnk) / LN(degu) END) AS minexp
           |FROM ranked GROUP BY 1, 2""".stripMargin,
        "edges" -> edgesDf(g))
    }
  }

  // ---- Random uniformity ----
  test("RN: sampling is unbiased across vertex-id halves") {
    val h = Sparsifiers.random(fb, 0.5, seed = 11)
    val mid = fb.numVertices / 2
    def frac(g: SparkGraph) = {
      val lo = edgesDf(g).filter(col("src") < mid).count().toDouble
      lo / g.numEdges
    }
    assert(math.abs(frac(h) - frac(fb)) < 0.05)
  }

  // ---- Forest Fire ----
  test("FF: burn scores favour edges in the giant component") {
    val g = Datasets.get(spark, "email-Enron", 0.15)
    val h = Sparsifiers.forestFire(g, 0.6, seed = 3)
    assert(h.numEdges > 0)
    // keeps roughly the requested edge count (exact top-K)
    assert(math.abs(h.numEdges.toDouble / g.numEdges - 0.4) < 0.02)
  }

  // ---- Rank Degree ----
  test("RD: keeps requested edge budget and grows a connected-ish region") {
    val h = Sparsifiers.rankDegree(fb, 0.5, seed = 9)
    assert(math.abs(h.numEdges.toDouble / fb.numEdges - 0.5) < 0.05)
  }

  test("RD: biases toward high-degree vertices") {
    val h = Sparsifiers.rankDegree(fb, 0.7, seed = 10)
    val degO = degrees(fb)
    val degH = degrees(h)
    val hubs = degO.indices.sortBy(-degO(_)).take(10)
    val hubKeep = hubs.map(v => degH(v).toDouble / degO(v)).sum / hubs.size
    assert(hubKeep > 0.3)
  }

  // ---- Effective Resistance ----
  test("ER: resistances on a path graph equal hop counts") {
    val path = GraphOps.fromPairs(spark, "path4er", Seq((0, 1), (1, 2), (2, 3)), directed = false, 4)
    val (s, d, _, r) = EffectiveResistance.resistances(path, 100)
    // every edge of a tree has effective resistance = its weight = 1
    s.indices.foreach(i => assert(math.abs(r(i) - 1.0) < 1e-6, s"edge ${s(i)}-${d(i)}: ${r(i)}"))
  }

  test("ER: parallel paths halve the resistance of a cycle edge") {
    val c4 = GraphOps.fromPairs(spark, "c4er", Seq((0, 1), (1, 2), (2, 3), (0, 3)), directed = false, 4)
    val (_, _, _, r) = EffectiveResistance.resistances(c4, 100)
    // cycle of 4 unit resistors: R_e = 1·3/(1+3) = 0.75 for every edge
    r.foreach(x => assert(math.abs(x - 0.75) < 1e-6))
  }

  test("ER: a cached solve still throws for a cap below its dense tail") {
    // K_40: one ground vertex; the other 39 each keep 38 > MaxDegree neighbours, so t = 39
    val pairs = for (u <- 0 until 40; v <- u + 1 until 40) yield (u, v)
    val k40 = SparkGraph.fromCanonical("er-cap-k40", pairs.map(_._1).toArray, pairs.map(_._2).toArray,
      Array.fill(pairs.size)(1.0), directed = false, weighted = false, 40)
    EffectiveResistance.resistances(k40, EffectiveResistance.MaxDenseN)
    val err = intercept[IllegalArgumentException](EffectiveResistance.resistances(k40, 38))
    assert(err.getMessage.contains("t = 39"), err.getMessage)
    EffectiveResistance.resistances(k40, 39)
  }

  test("ER: sum of leverage scores w·R equals n − #components") {
    val g = Datasets.get(spark, "ego-Facebook", 0.1)
    val (_, _, w, r) = EffectiveResistance.resistances(g, 2000)
    val lev = w.indices.map(i => w(i) * r(i)).sum
    assert(math.abs(lev - (g.numVertices - 1)) < 0.05 * g.numVertices)
  }

  test("ER-weighted: total kept weight is an unbiased estimate of total weight") {
    val h = Sparsifiers.erWeighted(fb, 0.4, seed = 5)
    def total(g: SparkGraph) = edgesDf(g).agg(sum("weight")).collect()(0).getDouble(0)
    assert(math.abs(total(h) / total(fb) - 1.0) < 0.25)
  }

  test("ER-weighted: preserves the Laplacian quadratic form far better than Random") {
    val g = Datasets.get(spark, "com-Amazon", 0.15)
    val hEr = Sparsifiers.erWeighted(g, 0.5, seed = 6)
    val hRn = Sparsifiers.random(g, 0.5, seed = 6)
    val rEr = QuadraticForm.meanRatio(g, hEr, nVectors = 50)
    val rRn = QuadraticForm.meanRatio(g, hRn, nVectors = 50)
    assert(math.abs(rEr - 1.0) < math.abs(rRn - 1.0),
      f"ER-w ratio $rEr%.3f should beat Random $rRn%.3f")
    assert(math.abs(rEr - 1.0) < 0.25, f"ER-w quadratic form ratio off: $rEr%.3f")
  }

  test("ER-unweighted: keeps original weights") {
    val h = Sparsifiers.erUnweighted(fb, 0.4, seed = 5)
    assert(edgesDf(h).filter(col("weight") =!= 1.0).count() === 0)
  }
}
