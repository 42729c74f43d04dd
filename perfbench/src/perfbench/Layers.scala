package perfbench

import repro.core.SparkGraph

/** The per-layer metrics of a traced run, named after the program's modules:
  * graphs, precompute, sparsify, sweep, materialize, metric, plus the spark
  * and jvm runtime underneath and the spans' own self times.
  */
object Layers {

  /** Every sparsifier variant some workload runs, in first-seen order. */
  val variants: Seq[String] = Workloads.all.flatMap(_.sparsifiers.map(_.abbrev)).distinct

  /** Every metric some workload evaluates. */
  val metricKinds: Seq[String] = Workloads.all.flatMap(_.metricNames).distinct

  /** (name, unit) of every per-layer metric. A traced run reports all of
    * them on every workload; a layer the workload does not use reads 0.
    */
  val catalog: Seq[(String, String)] =
    Seq(
      "precompute.er_s" -> "s", "precompute.er_n" -> "count",
      "precompute.er_gflop" -> "GFLOP", "precompute.er_dense_mb" -> "MB",
      "precompute.similarity_s" -> "s", "precompute.similarity_jobs" -> "count",
      "sparsify.s" -> "s", "sparsify.self_s" -> "s", "sparsify.jobs" -> "count",
      "sparsify.tasks" -> "count", "sparsify.shuffle_mb" -> "MB") ++
    variants.map(v => s"sparsify.$v.s" -> "s") ++
    Seq(
      "sweep.force_s" -> "s", "sweep.force_jobs" -> "count", "sweep.cells" -> "count",
      "sweep.cell_s.p50" -> "s", "sweep.cell_s.p90" -> "s",
      "materialize.collect_s" -> "s", "materialize.collect_jobs" -> "count",
      "materialize.useful_ratio" -> "ratio") ++
    metricKinds.flatMap(m => Seq(
      s"metric.$m.s" -> "s", s"metric.$m.spark_s" -> "s",
      s"metric.$m.driver_s" -> "s", s"metric.$m.jobs" -> "count")) ++
    Seq(
      "graphs.build_s" -> "s", "graphs.jobs" -> "count",
      "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
      "spark.shuffle_mb" -> "MB", "spark.storage_mb" -> "MB", "spark.codegen_compiles" -> "count",
      "jvm.gc_s" -> "s", "jvm.jit_s" -> "s", "jvm.cold_gc_s" -> "s", "jvm.cold_jit_s" -> "s",
      "span.repeat.self_s" -> "s", "span.precompute.self_s" -> "s",
      "span.metric.self_s" -> "s", "span.materialize.self_s" -> "s",
      "trace.sweep_s" -> "s", "trace.untraced_sweep_s" -> "s", "trace.overhead_s" -> "s")

  /** Per-layer figures of one traced repeat. Each job is attributed to the
    * innermost span open when it was submitted, so a span's jobs exclude its
    * children's: the `sweep` span's own jobs are the `numEdges` forces.
    */
  def of(w: Workload, g: SparkGraph, spans: Seq[Span], attribution: JobAttribution,
         storageMb: Double, gcS: Double, jitS: Double, codegen: Long): Map[String, Double] = {
    def layer(select: Span => Boolean) = LayerTotals.of(spans, attribution)(select)
    def named(n: String) = layer(_.name == n)
    def prefixed(p: String) = layer(_.name.startsWith(p))
    val er = named("precompute.er")
    val sim = named("precompute.similarity")
    val sparsify = prefixed("sparsify.")
    val sweep = named("sweep")
    val collect = named("materialize.collect")
    // metric spans inside cells (the reference values run before the sweep)
    val cellMetrics = layer(s => s.name.startsWith("metric.") && s.parent.exists(_.name == "sweep"))
    val all = layer(_ => true)
    val n = if (w.usesEr) g.numVertices.toDouble else 0.0

    val fixed = Map(
      "precompute.er_s" -> er.seconds,
      "precompute.er_n" -> n,
      "precompute.er_gflop" -> 2 * n * n * n / 1e9,
      "precompute.er_dense_mb" -> 8 * n * n / 1e6,
      "precompute.similarity_s" -> sim.seconds,
      "precompute.similarity_jobs" -> sim.jobs.toDouble,
      "sparsify.s" -> sparsify.seconds,
      "sparsify.self_s" -> sparsify.selfSeconds,
      "sparsify.jobs" -> sparsify.jobs.toDouble,
      "sparsify.tasks" -> sparsify.tasks.toDouble,
      "sparsify.shuffle_mb" -> sparsify.shuffleMb,
      "sweep.force_s" -> sweep.selfSeconds,
      "sweep.force_jobs" -> sweep.jobs.toDouble,
      "sweep.cells" -> spans.count(_.name.startsWith("sparsify.")).toDouble,
      "materialize.collect_s" -> collect.seconds,
      "materialize.collect_jobs" -> collect.jobs.toDouble,
      "materialize.useful_ratio" ->
        (if (cellMetrics.jobs == 0) 1.0 else collect.jobs.toDouble / cellMetrics.jobs),
      "spark.jobs" -> all.jobs.toDouble,
      "spark.stages" -> all.stages.toDouble,
      "spark.tasks" -> all.tasks.toDouble,
      "spark.shuffle_mb" -> all.shuffleMb,
      "spark.storage_mb" -> storageMb,
      "spark.codegen_compiles" -> codegen.toDouble,
      "jvm.gc_s" -> gcS,
      "jvm.jit_s" -> jitS,
      "span.repeat.self_s" -> named("repeat").selfSeconds,
      "span.precompute.self_s" -> prefixed("precompute.").selfSeconds,
      "span.metric.self_s" -> prefixed("metric.").selfSeconds,
      "span.materialize.self_s" -> collect.selfSeconds)
    val perVariant = variants.map(v => s"sparsify.$v.s" -> named(s"sparsify.$v").seconds)
    val perMetric = metricKinds.flatMap { m =>
      val t = named(s"metric.$m")
      Seq(
        s"metric.$m.s" -> t.seconds,
        s"metric.$m.spark_s" -> t.sparkSeconds,
        s"metric.$m.driver_s" -> math.max(0.0, t.seconds - t.sparkSeconds),
        s"metric.$m.jobs" -> t.jobs.toDouble)
    }
    fixed ++ perVariant ++ perMetric
  }
}
