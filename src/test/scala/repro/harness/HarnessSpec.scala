package repro.harness

import repro.SparkSpec
import repro.core.{PruneRateControl, Sparsifier, Sparsifiers}

/** The sweep/formatting plumbing and the jobs wiring. */
class HarnessSpec extends SparkSpec {

  test("Fmt.fmtD renders NaN, integers and reals") {
    assert(Fmt.fmtD(Double.NaN) === "n/a")
    assert(Fmt.fmtD(8.0) === "8.0")
    assert(Fmt.fmtD(0.12345678) === "0.1235")
  }

  test("Fmt.sweepTable includes every sparsifier row and rho column") {
    val rows = Seq(SweepRow(Sparsifiers.random,
      Seq(Cell(0.1, 0.1, 0.5, 0.01, 3), Cell(0.5, 0.5, 0.25, 0.0, 3))))
    val t = Fmt.sweepTable("test table", rows, Seq(0.1, 0.5))
    assert(t.contains("RN") && t.contains("rho=0.1") && t.contains("rho=0.5"))
    assert(t.contains("0.5000") && t.contains("0.2500"))
  }

  test("Fmt.sweepTable prints a cell voided by a NaN seed as a bare n/a") {
    val rows = Seq(SweepRow(Sparsifiers.random,
      Seq(Cell(0.1, 0.1, 0.5, 0.01, 2), Cell(0.9, 0.9, Double.NaN, Double.NaN, 2))))
    val t = Fmt.sweepTable("void", rows, Seq(0.1, 0.9))
    assert(t.contains("0.5000±0.010") && t.contains("n/a"))
    assert(!t.contains("NaN"), t)
  }

  test("Fmt.sweepTable renders fixed-rate rows specially") {
    val rows = Seq(SweepRow(Sparsifiers.spanningForest, Seq(Cell(0.5, 0.87, 1.0, 0.0, 1))))
    val t = Fmt.sweepTable("sf", rows, Seq(0.1, 0.5))
    assert(t.contains("fixed") && t.contains("0.87"))
  }

  test("Fmt.simpleTable aligns rows under headers") {
    val t = Fmt.simpleTable("x", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("3", "4")))
    assert(t.contains("a") && t.contains("bb") && t.contains("3"))
  }

  test("ExpResult.meanOf skips NaN cells") {
    val sp = Sparsifiers.random
    val r = ExpResult("t", Seq(0.1, 0.5),
      Seq(SweepRow(sp, Seq(Cell(0.1, 0.1, 2.0, 0, 1), Cell(0.5, 0.5, Double.NaN, 0, 1)))))
    assert(r.meanOf(sp) === 2.0)
  }

  test("ExpResult.atMaxRho picks the largest measured rho") {
    val sp = Sparsifiers.random
    val r = ExpResult("t", Seq(0.1, 0.5),
      Seq(SweepRow(sp, Seq(Cell(0.1, 0.1, 2.0, 0, 1), Cell(0.5, 0.5, 7.0, 0, 1)))))
    assert(r.atMaxRho(sp) === 7.0)
  }

  test("ExpResult.render includes reference and baseline lines") {
    val sp = Sparsifiers.random
    val r = ExpResult("t", Seq(0.1), Seq(SweepRow(sp, Seq(Cell(0.1, 0.1, 1.0, 0, 1)))),
      refValue = Some(0.9), baseline = Some(0.4))
    assert(r.render.contains("full-graph value") && r.render.contains("no graph"))
  }

  test("ExpResult.atMaxRho and meanOf name a sparsifier with no row") {
    val r = ExpResult("t", Seq(0.1), Seq(SweepRow(Sparsifiers.random, Seq(Cell(0.1, 0.1, 1.0, 0, 1)))))
    for (f <- Seq[Sparsifier => Double](r.atMaxRho, r.meanOf)) {
      val e = intercept[NoSuchElementException](f(Sparsifiers.kNeighbor))
      assert(e.getMessage.contains("no row KN"), e.getMessage)
    }
  }

  test("Experiments.Config rejects a seed count below 1 and a non-positive scale") {
    for (seeds <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](Experiments.Config(seeds = seeds))
      assert(e.getMessage.contains(s"got $seeds"), e.getMessage)
    }
    for (scale <- Seq(0.0, -1.0, Double.NaN)) {
      val e = intercept[IllegalArgumentException](Experiments.Config(scale = scale))
      assert(e.getMessage.contains(s"got $scale"), e.getMessage)
    }
  }

  test("the figure registry has unique ids, the paper's 21 tables in order and each figure's sparsifiers") {
    val figs = Experiments.figures
    assert(Experiments.ids.distinct === Experiments.ids)
    assert(Experiments.ids === Seq("1", "2", "3", "4ab", "4c", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14"))
    val fig14 = Experiments.results(spark, "14", Experiments.Config(scale = 0.08, rhos = Seq(0.5), seeds = 1))
    assert(figs.flatMap(_.panels.map(_.title)) ++ fig14.map(_.title) === Seq(
      "Fig 1a: sd-pair unreachable ratio (ca-AstroPh)",
      "Fig 1b: vertex isolated ratio (ca-AstroPh)",
      "Fig 2: degree distribution Bhattacharyya distance (ogbn-proteins)",
      "Fig 3: Laplacian quadratic form ratio (com-Amazon)",
      "Fig 4a: SPSP mean stretch factor (ca-AstroPh)",
      "Fig 4b: eccentricity mean stretch factor (ca-AstroPh)",
      "Fig 4c: approx diameter (ego-Facebook)",
      "Fig 5a: betweenness top-100 precision (com-DBLP)",
      "Fig 5b: closeness top-100 precision (ca-AstroPh)",
      "Fig 6: eigenvector top-100 precision (email-Enron)",
      "Fig 7: Katz top-100 precision (ego-Twitter)",
      "Fig 8: number of communities (com-DBLP)",
      "Fig 9a: mean clustering coefficient (com-Amazon)",
      "Fig 9b: global clustering coefficient (human_gene2)",
      "Fig 10: clustering F1 similarity (ca-HepPh)",
      "Fig 11a: PageRank top-100 precision (web-Google)",
      "Fig 11b: PageRank top-100 precision (ego-Facebook)",
      "Fig 12: min-cut/max-flow mean stretch (ca-HepPh)",
      "Fig 13a: SageLike AUROC (ogbn-proteins)",
      "Fig 13b: ClusterGcnLike accuracy (Reddit)",
      "Fig 14: sparsification time, ms (ogbn-proteins)"))
    assert(figs.map(f => f.id -> f.sparsifiers.map(_.abbrev)) === Seq(
      "1" -> Seq("RN", "KN", "LD", "LSim", "ER-u", "SF", "SP-3", "GS", "SCAN"),
      "2" -> Seq("RN", "LD", "RD", "KN", "FF", "LSim"),
      "3" -> Seq("ER-w", "ER-u", "RN", "LD", "GS"),
      "4ab" -> Seq("LD", "RD", "LS", "ER-u", "FF", "KN", "GS", "SCAN", "RN", "SF", "SP-3"),
      "4c" -> Seq("LD", "RD", "GS", "SCAN", "LSim", "RN"),
      "5" -> Seq("LD", "RD", "RN", "LS", "GS", "SCAN", "FF"),
      "6" -> Seq("RD", "LD", "RN", "FF", "KN"),
      "7" -> Seq("RN", "KN", "ER-u", "LD", "RD", "FF"),
      "8" -> Seq("LD", "KN", "SF", "SP-3", "GS", "RD", "RN"),
      "9" -> Seq("LSim", "SCAN", "GS", "RN", "LD", "KN", "SF"),
      "10" -> Seq("ER-u", "ER-w", "KN", "LD", "LS", "LSim", "SCAN", "GS", "RN"),
      "11" -> Seq("ER-u", "ER-w", "KN", "RN", "GS", "SCAN", "LD", "RD"),
      "12" -> Seq("ER-w", "ER-u", "KN", "FF", "GS", "SCAN", "RN"),
      "13" -> Seq("RN", "LSim", "GS", "SCAN", "LD", "RD")))
    assert(fig14.head.rows.map(_.sparsifier) === Sparsifiers.all)
  }

  test("FigureJob.results runs a figure on the full 9-point rho grid") {
    val Seq(r) = jobs.FigureJob.results(spark, Array("4c", "0.08", "1"))
    assert(r.title === "Fig 4c: approx diameter (ego-Facebook)")
    assert(r.rhos === Seq(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
    r.rows.foreach(row => assert(row.cells.map(_.rho) === r.rhos))
  }

  test("FigureJob.results rejects an unknown id and lists the valid ones") {
    for (args <- Seq(Array("4c,4z", "0.08", "1"), Array.empty[String])) {
      val e = intercept[IllegalArgumentException](jobs.FigureJob.results(spark, args))
      assert(e.getMessage.contains(Experiments.ids.mkString(" ")), e.getMessage)
    }
  }

  test("every jobs main class exists with a main(Array[String]) entrypoint") {
    val names = Seq("FigureJob", "TaxonomyJob")
    names.foreach { n =>
      val cls = Class.forName(s"jobs.$n")
      val m = cls.getMethod("main", classOf[Array[String]])
      assert(m != null, s"jobs.$n missing main")
    }
  }

  test("JobMain full sweep covers 0.1 through 0.9 with step 0.1") {
    assert(jobs.JobMain.fullRhos === Seq(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
  }

  test("Sweep honours NoControl: ignores the rho grid entirely") {
    val g = repro.graphs.Datasets.get(spark, "ego-Facebook", 0.08)
    val rows = Sweep.run(g, Seq(Sparsifiers.tSpanner), Seq(0.1, 0.9), 1)((_, h) => h.numEdges.toDouble)
    assert(rows.head.sparsifier.pruneRateControl === PruneRateControl.NoControl)
    assert(rows.head.cells.size === 1)
  }
}
