package repro.harness

import repro.SparkSpec
import repro.core.{PruneRateControl, Sparsifiers}

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

  test("every jobs main class exists with a main(Array[String]) entrypoint") {
    val names = Seq("TaxonomyJob", "ConnectivityJob", "DegreeDistJob", "QuadraticFormJob",
      "DistanceJob", "CentralityJob", "ClusteringJob", "PageRankJob", "MaxFlowJob",
      "GnnJob", "TimingJob")
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
