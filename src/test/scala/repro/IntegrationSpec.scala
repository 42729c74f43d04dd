package repro

import repro.core.Sparsifiers
import repro.graphs.Datasets
import repro.harness.{Experiments, Sweep}
import repro.metrics._

/** End-to-end: the full sweep machinery over every sparsifier with real
  * metrics on small dataset instances — what each bench suite runs at
  * larger scale.
  */
class IntegrationSpec extends SparkSpec {

  private val cfg = Experiments.Config(scale = 0.1, rhos = Seq(0.3, 0.7), seeds = 1)

  test("Sweep runs every sparsifier against connectivity without NaNs") {
    val g = Datasets.get(spark, "ca-AstroPh", 0.1)
    val rows = Sweep.run(g, Sparsifiers.all, Seq(0.5), seeds = 1)((_, h) =>
      Connectivity.unreachableRatio(h))
    assert(rows.size === 13)
    rows.foreach { r =>
      assert(r.cells.nonEmpty)
      r.cells.foreach(c => assert(!c.mean.isNaN && c.mean >= 0.0 && c.mean <= 1.0))
    }
  }

  test("Sweep reports achieved prune rates near targets for fine-control sparsifiers") {
    val g = Datasets.get(spark, "ego-Facebook", 0.1)
    val rows = Sweep.run(g, Seq(Sparsifiers.random, Sparsifiers.localDegree), Seq(0.3, 0.7), 1)((_, _) => 0.0)
    rows.foreach(_.cells.foreach(c => assert(math.abs(c.achievedRho - c.rho) < 0.05)))
  }

  test("Sweep gives NoControl sparsifiers a single intrinsic cell") {
    val g = Datasets.get(spark, "ego-Facebook", 0.1)
    val rows = Sweep.run(g, Seq(Sparsifiers.spanningForest), Seq(0.1, 0.5, 0.9), 1)((_, _) => 0.0)
    assert(rows.head.cells.size === 1)
  }

  test("Sweep averages non-deterministic sparsifiers over seeds with std") {
    val g = Datasets.get(spark, "ego-Facebook", 0.1)
    val rows = Sweep.run(g, Seq(Sparsifiers.random), Seq(0.5), seeds = 3)((_, h) =>
      h.numEdges.toDouble)
    assert(rows.head.cells.head.runs === 3)
  }

  test("runMulti evaluates several metrics per sparsified graph") {
    val g = Datasets.get(spark, "ca-AstroPh", 0.1)
    val rs = Sweep.runMulti(g, Seq(Sparsifiers.random), Seq(0.5), 1)((_, h) =>
      Seq(Connectivity.unreachableRatio(h), Connectivity.isolatedRatio(h)))
    assert(rs.size === 2)
    assert(rs(0).head.cells.head.mean >= rs(1).head.cells.head.mean - 1.0)
  }

  test("experiment: connectivity produces two result tables") {
    val res = Experiments.results(spark, "1", cfg)
    assert(res.size === 2)
    res.foreach(r => assert(r.rows.nonEmpty && r.render.nonEmpty))
  }

  test("experiment: degree distribution runs end to end") {
    val res = Experiments.results(spark, "2", cfg)
    assert(res.head.rows.forall(_.cells.forall(c => c.mean >= 0)))
  }

  test("experiment: diameter reports a positive reference") {
    val res = Experiments.results(spark, "4c", cfg)
    assert(res.head.refValue.exists(_ > 0))
  }

  test("ExpResult helpers (meanOf, atMaxRho) work") {
    val res = Experiments.results(spark, "2", cfg).head
    val sp = res.rows.head.sparsifier
    assert(!res.meanOf(sp).isNaN)
    assert(!res.atMaxRho(sp).isNaN)
  }

  test("timing experiment measures every sparsifier") {
    val t = Experiments.timing(spark, Experiments.Config(scale = 0.08, rhos = Seq(0.5), seeds = 1))
    assert(t.rows.size === 13)
    t.rows.foreach(r => assert(r.cells.forall(_.mean > 0)))
  }
}
