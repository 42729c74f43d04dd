package repro.metrics

/** Applicability of a graph metric to graph types — the rows of the paper's
  * Table 1. `weightUsed=false` marks the "weight not used, same as
  * unweighted" footnote (†); `finitePairsOnly=true` marks the footnote (‡)
  * about excluding infinite-distance / zero-flow pairs on unconnected
  * graphs; `note` carries the remaining footnote (*).
  */
final case class MetricInfo(
    name: String,
    directed: Boolean,
    weighted: Boolean,
    weightUsed: Boolean,
    unconnected: Boolean,
    finitePairsOnly: Boolean = false,
    note: String = "")

/** The paper's Table 1 as data: `Taxonomy` renders it, and the tests check
  * it against the paper. The metrics themselves do not read it.
  */
object MetricInfo {
  val all: Seq[MetricInfo] = Seq(
    MetricInfo("Degree Dist.",      directed = true,  weighted = true,  weightUsed = false, unconnected = true),
    MetricInfo("Diameter",          directed = true,  weighted = true,  weightUsed = true,  unconnected = true, finitePairsOnly = true),
    MetricInfo("Eccentricity",      directed = true,  weighted = true,  weightUsed = true,  unconnected = true, finitePairsOnly = true),
    MetricInfo("APSP",              directed = true,  weighted = true,  weightUsed = true,  unconnected = true, finitePairsOnly = true),
    MetricInfo("Betweenness Cent.", directed = true,  weighted = true,  weightUsed = true,  unconnected = true),
    MetricInfo("Closeness Cent.",   directed = true,  weighted = true,  weightUsed = true,  unconnected = true),
    MetricInfo("Eigenvector Cent.", directed = true,  weighted = true,  weightUsed = true,  unconnected = true,
      note = "left eigenvector for directed graphs"),
    MetricInfo("Katz Cent.",        directed = true,  weighted = true,  weightUsed = true,  unconnected = true),
    MetricInfo("#Communities",      directed = false, weighted = true,  weightUsed = true,  unconnected = true),
    MetricInfo("LCC",               directed = true,  weighted = true,  weightUsed = false, unconnected = true),
    MetricInfo("MCC",               directed = true,  weighted = true,  weightUsed = false, unconnected = true),
    MetricInfo("GCC",               directed = true,  weighted = true,  weightUsed = false, unconnected = true),
    MetricInfo("Clustering F1 Sim", directed = false, weighted = true,  weightUsed = true,  unconnected = true),
    MetricInfo("PageRank",          directed = true,  weighted = true,  weightUsed = true,  unconnected = true),
    MetricInfo("Min-cut/Max-flow",  directed = true,  weighted = true,  weightUsed = true,  unconnected = true, finitePairsOnly = true),
    MetricInfo("GNN",               directed = true,  weighted = true,  weightUsed = true,  unconnected = true),
  )
}
