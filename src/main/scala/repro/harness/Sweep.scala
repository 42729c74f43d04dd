package repro.harness

import repro.core.{PruneRateControl, SparkGraph, Sparsifier}

/** One sparsifier's measured value at one prune rate (mean over seeds for
  * non-deterministic sparsifiers, ± std as in the paper's §3.2 item 2).
  */
final case class Cell(rho: Double, achievedRho: Double, mean: Double, std: Double, runs: Int)

final case class SweepRow(sparsifier: Sparsifier, cells: Seq[Cell])

/** Runs the paper's core experiment loop: sparsifier × prune-rate grid with
  * seed-averaging for non-deterministic sparsifiers, evaluating an arbitrary
  * (original, sparsified) → Double metric. Sparsifiers with NO prune-rate
  * control (Spanning Forest, t-Spanner) contribute a single cell at their
  * intrinsic prune rate (§3.2 item 1). A cell's mean is the plain mean of
  * its seeds, so one NaN seed (no usable measurement) voids the cell, which
  * prints as `n/a`.
  */
object Sweep {

  /** The prune rates `sp` runs at: the grid, or for a sparsifier with no
    * prune-rate control (Spanning Forest, t-Spanner) one cell at its
    * intrinsic rate, filed under ρ = 0.5 (§3.2 item 1).
    */
  def targetRhos(sp: Sparsifier, rhos: Seq[Double]): Seq[Double] =
    if (sp.pruneRateControl == PruneRateControl.NoControl) Seq(0.5) else rhos

  def run(
      g: SparkGraph,
      sparsifiers: Seq[Sparsifier],
      rhos: Seq[Double],
      seeds: Int)(metric: (SparkGraph, SparkGraph) => Double): Seq[SweepRow] =
    runMulti(g, sparsifiers, rhos, seeds)((o, h) => Seq(metric(o, h))).head

  /** Like [[run]] but evaluates several metrics per sparsified graph (e.g.
    * SPSP stretch AND eccentricity on the same H), so the expensive
    * sparsification is not repeated per metric. Result is indexed by metric.
    */
  def runMulti(
      g: SparkGraph,
      sparsifiers: Seq[Sparsifier],
      rhos: Seq[Double],
      seeds: Int)(metric: (SparkGraph, SparkGraph) => Seq[Double]): Seq[Seq[SweepRow]] = {
    val m = g.numEdges
    var nMetrics = -1
    val perSparsifier = sparsifiers.map { sp =>
      val cells = targetRhos(sp, rhos).map { rho =>
        val nRuns = if (sp.deterministic) 1 else seeds
        val results = (0 until nRuns).map { s =>
          val h = sp(g, rho, seed = 1000L * s + 7)
          val achieved = 1.0 - h.numEdges.toDouble / m
          (achieved, metric(g, h))
        }
        nMetrics = results.head._2.size
        val achievedMean = results.map(_._1).sum / results.size
        val stats = (0 until nMetrics).map { k =>
          val vals = results.map(_._2(k))
          val mean = vals.sum / vals.size
          val std =
            if (vals.size < 2) 0.0
            else math.sqrt(vals.map(v => (v - mean) * (v - mean)).sum / (vals.size - 1))
          (mean, std, vals.size)
        }
        (rho, achievedMean, stats)
      }
      (sp, cells)
    }
    (0 until nMetrics).map { k =>
      perSparsifier.map { case (sp, cells) =>
        SweepRow(sp, cells.map { case (rho, ach, stats) =>
          val (mean, std, runs) = stats(k)
          Cell(rho, ach, mean, std, runs)
        })
      }
    }
  }
}

/** Plain-text table formatting for bench output and EXPERIMENTS.md. */
object Fmt {

  def fmtD(x: Double): String =
    if (x.isNaN) "n/a" else if (x == x.floor && math.abs(x) < 1e6) f"${x}%.1f" else f"$x%.4f"

  def sweepTable(title: String, rows: Seq[SweepRow], rhos: Seq[Double]): String = {
    val sb = new StringBuilder
    sb ++= s"\n== $title ==\n"
    sb ++= ("sparsifier".padTo(16, ' ') + rhos.map(r => f"rho=$r%.1f".padTo(14, ' ')).mkString + "\n")
    rows.foreach { row =>
      sb ++= row.sparsifier.abbrev.padTo(16, ' ')
      // a single cell where the rule gives one, whatever the grid
      if (row.cells.nonEmpty && row.cells.map(_.rho) == Sweep.targetRhos(row.sparsifier, Nil)) {
        val c = row.cells.head
        sb ++= f"${fmtD(c.mean)} @achieved-rho=${c.achievedRho}%.2f (fixed)"
      } else {
        rhos.foreach { r =>
          row.cells.find(_.rho == r) match {
            case Some(c) =>
              val s = if (c.runs > 1 && !c.mean.isNaN) f"${fmtD(c.mean)}±${c.std}%.3f" else fmtD(c.mean)
              sb ++= s.padTo(14, ' ')
            case None => sb ++= "-".padTo(14, ' ')
          }
        }
      }
      sb ++= "\n"
    }
    sb.toString
  }

  def simpleTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val widths = header.indices.map(i => (header(i) +: rows.map(_(i))).map(_.length).max + 2)
    val sb = new StringBuilder(s"\n== $title ==\n")
    sb ++= header.indices.map(i => header(i).padTo(widths(i), ' ')).mkString + "\n"
    rows.foreach(r => sb ++= r.indices.map(i => r(i).padTo(widths(i), ' ')).mkString + "\n")
    sb.toString
  }
}
