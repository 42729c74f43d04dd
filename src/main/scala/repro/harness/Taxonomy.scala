package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{PruneRateControl, Sparsifiers}
import repro.graphs.Datasets
import repro.metrics.{Connectivity, MetricInfo}

/** Renders the paper's taxonomy tables (1–3) from framework metadata, so
  * the tables are *derived from the code* rather than transcribed prose.
  */
object Taxonomy {

  private def mark(b: Boolean) = if (b) "yes" else "no"

  /** Table 1: metrics' applicability to types of graphs. */
  def table1: String = {
    val rows = MetricInfo.all.map { m =>
      val w = if (!m.weightUsed) "unused" else mark(m.weighted)
      val u = if (m.finitePairsOnly) "yes (finite pairs only)" else mark(m.unconnected)
      Seq(m.name, mark(m.directed), w, u, m.note)
    }
    Fmt.simpleTable("Table 1: metric applicability",
      Seq("Metric", "Directed", "Weighted", "Unconnected", "Note"), rows)
  }

  /** Table 2: sparsifiers' applicability and characteristics. */
  def table2: String = {
    val rows = Sparsifiers.all.map { s =>
      val prc = s.pruneRateControl match {
        case PruneRateControl.Fine      => "fine"
        case PruneRateControl.Coarse    => "coarse"
        case PruneRateControl.NoControl => "none"
      }
      Seq(s"${s.name} (${s.abbrev})", mark(s.supportsDirected), mark(s.supportsWeighted),
        mark(s.supportsUnconnected), prc, mark(s.changesWeights), mark(s.deterministic))
    }
    Fmt.simpleTable("Table 2: sparsifier applicability and characteristics",
      Seq("Sparsifier", "Directed", "Weighted", "Unconnected", "PRC", "WeightChange", "Deterministic"), rows)
  }

  /** Table 3: dataset inventory — paper sizes vs our synthetic substitutes. */
  def table3(spark: SparkSession, scale: Double = 1.0): String = {
    val rows = Datasets.specs.map { sp =>
      val g = Datasets.get(spark, sp.name, scale)
      val n = g.numVertices
      val m = g.numEdges
      // match the paper's density convention: |E| / |V|^2
      val density = m.toDouble / (n.toDouble * n)
      Seq(sp.category, sp.name, mark(sp.directed), mark(sp.weighted), mark(sp.connected),
        n.toString, m.toString, f"$density%.2e",
        s"paper: ${sp.paperNodes}/${sp.paperEdges}")
    }
    Fmt.simpleTable("Table 3: graph datasets (synthetic substitutes)",
      Seq("Category", "Name", "Dir", "Wt", "Conn", "#Nodes", "#Edges", "Density", "PaperSize(N/E)"), rows)
  }

  /** Sanity checks used by tests: does each substitute match its spec? */
  def datasetMatchesSpec(spark: SparkSession, name: String, scale: Double): Boolean = {
    val sp = Datasets.spec(name)
    val g = Datasets.get(spark, name, scale)
    val connected = Connectivity.unreachableRatio(g) == 0.0
    g.directed == sp.directed && g.weighted == sp.weighted && connected == sp.connected &&
      Connectivity.isolatedRatio(g) == 0.0
  }
}
