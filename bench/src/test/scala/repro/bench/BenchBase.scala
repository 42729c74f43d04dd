package repro.bench

import repro.SparkSpec
import repro.core.Sparsifier
import repro.harness.{Experiments, ExpResult}

/** Base for the per-figure bench suites.
  *
  * Each suite reproduces one paper artifact: it prints the table of numbers
  * behind the figure (recorded in EXPERIMENTS.md) and asserts the paper's
  * QUALITATIVE shape — which sparsifier wins, roughly by how much — not
  * absolute values (our graphs are ~100× scaled-down synthetic substitutes).
  *
  * Grid: ρ ∈ {0.1,0.3,0.5,0.7,0.9}, 2 seeds for non-deterministic
  * sparsifiers (paper: step 0.1, 10 seeds). Override with BENCH_SCALE /
  * BENCH_SEEDS. `jobs.FigureJob` runs the full-resolution sweep.
  */
abstract class BenchBase extends SparkSpec {
  protected val cfg: Experiments.Config = Experiments.Config(
    scale = sys.env.getOrElse("BENCH_SCALE", "1.0").toDouble,
    rhos = Seq(0.1, 0.3, 0.5, 0.7, 0.9),
    seeds = sys.env.getOrElse("BENCH_SEEDS", "2").toInt)

  protected def show(results: Seq[ExpResult]): Unit =
    results.foreach(r => println(r.render))

  /** |mean(sp) − target| — distance of a sparsifier's sweep mean from a
    * reference value (e.g. 1.0 for stretch/ratio metrics).
    */
  protected def dist(r: ExpResult, sp: Sparsifier, target: Double): Double =
    math.abs(r.meanOf(sp) - target)
}
