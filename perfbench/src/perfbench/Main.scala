package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.sql.SparkSession
import repro.core.SparkGraph
import repro.core.sparsifiers.{EffectiveResistance, SimilarityScores}
import repro.graphs.Datasets
import repro.harness.Sweep

/** Options of one benchmark process (see perfbench/README.md). */
final case class Options(
    workload: String = "",
    seed: Long = 0L,
    seconds: Double = 10.0,
    trace: Boolean = false,
    scaleFactor: Double = 1.0,
    workDir: String = ".",
    referenceDir: String = "",
    recordReference: Option[String] = None)

/** One measured sweep of a workload over its graph. */
final case class Repeat(
    traced: Boolean,
    wallS: Double,
    jobs: Long,
    table: Table,
    cellSeconds: Seq[Double],
    attempted: Int,
    failed: Int,
    rhoMisses: Seq[String],
    liveHeapMb: Double,
    gcS: Double,
    jitS: Double,
    codegenCompiles: Long,
    layers: Map[String, Double])

/** Benchmark process: sets up Spark and the workload's graph several times,
  * runs one cold sweep at the reference seed, then a fixed number of warm
  * sweeps at the workload seed, checks the outputs, and prints one
  * `perfbench-result` JSON line (plus a `perfbench-stamp` line before it).
  */
object Main {

  /** Seed of the committed reference table; the cold sweep always uses it. */
  val ReferenceSeed = 0L
  val SetupRepeats = 5
  /** Warm sweeps per run: the same work on every commit, so that a faster
    * program is not also measured after more JIT warm-up.
    */
  val WarmSweeps = 4
  val ErMaxN = 6000
  val DetTolerance = 1e-9

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv.toList, Options()))
      catch {
        case e: Throwable =>
          Console.err.println(s"[perfbench] failed: $e")
          e.printStackTrace()
          2
      }
    sys.exit(code)
  }

  @annotation.tailrec
  private def parse(args: List[String], o: Options): Options = args match {
    case "--workload" :: v :: rest         => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest             => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest          => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest            => parse(rest, o.copy(trace = v == "1"))
    case "--scale-factor" :: v :: rest     => parse(rest, o.copy(scaleFactor = v.toDouble))
    case "--work-dir" :: v :: rest         => parse(rest, o.copy(workDir = v))
    case "--reference-dir" :: v :: rest    => parse(rest, o.copy(referenceDir = v))
    case "--record-reference" :: v :: rest => parse(rest, o.copy(recordReference = Some(v)))
    case Nil                               => o
    case other                             => throw new IllegalArgumentException(s"bad arguments: $other")
  }

  /** `local[N]` with N from SPARK_GRAFT_CPUS, capped at the processors the
    * JVM may use.
    */
  def cpus: Int = {
    val nproc = Runtime.getRuntime.availableProcessors()
    sys.env.get("SPARK_GRAFT_CPUS").flatMap(_.trim.toIntOption).filter(_ > 0).fold(nproc)(math.min(_, nproc))
  }

  /** The session settings of `SparkSpec`: 64 shuffle partitions, no
    * broadcast joins, no UI. Scratch files stay under the work directory.
    */
  def newSession(workDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[$cpus]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()

  private def clearPrecompute(): Unit = {
    SimilarityScores.clear()
    EffectiveResistance.clearCache()
  }

  private def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  private def jitMs: Long =
    Option(ManagementFactory.getCompilationMXBean)
      .filter(_.isCompilationTimeMonitoringSupported)
      .fold(0L)(_.getTotalCompilationTime)

  /** Heap in use after an explicit full collection. */
  private def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  private val processStart = System.nanoTime()

  /** Progress line on standard error, with seconds since the process began. */
  private def progress(msg: String): Unit =
    Console.err.println(f"[perfbench] ${(System.nanoTime() - processStart) / 1e9}%7.2f s  $msg")

  def run(o: Options): Int = {
    val w = Workloads.byName(o.workload)
    val scale = w.scale * o.scaleFactor

    // Set-up, several times: session start plus the workload's graph, built
    // and counted. Every set-up after the first stops the previous session.
    val setupS = mutable.ArrayBuffer.empty[Double]
    val buildS = mutable.ArrayBuffer.empty[Double]
    var buildJobs = 0L
    var edges = 0L
    var spark: SparkSession = null
    var counter: JobCounter = null
    var g: SparkGraph = null
    for (_ <- 0 until SetupRepeats) {
      if (spark != null) {
        clearPrecompute()
        Datasets.clearCache()
        spark.stop()
      }
      val t0 = System.nanoTime()
      spark = newSession(o.workDir)
      counter = new JobCounter
      spark.sparkContext.addSparkListener(counter)
      val t1 = System.nanoTime()
      g = Datasets.get(spark, w.dataset, scale)
      edges = g.numEdges
      val t2 = System.nanoTime()
      setupS += (t2 - t0) / 1e9
      buildS += (t2 - t1) / 1e9
      PerfbenchBus.drain(spark.sparkContext)
      buildJobs = counter.jobs
      progress(f"set-up ${setupS.last}%.3f s (graph ${buildS.last}%.3f s)")
    }
    val sc = spark.sparkContext
    sc.setLogLevel("WARN")

    val cold = repeat(w, g, sc, counter, ReferenceSeed, traced = false)
    progress(f"cold sweep ${cold.wallS}%.3f s, ${cold.jobs} jobs, ${cold.codegenCompiles} codegen compiles, jit ${cold.jitS}%.1f s")

    o.recordReference match {
      case Some(path) =>
        Reference.write(Paths.get(path), w, cold)
        spark.stop()
        return 0
      case None =>
    }

    // Warm sweeps at the workload seed: WarmSweeps of them, fewer if the
    // next one would end past --seconds (never fewer than one). A traced run
    // makes untraced, traced, traced, untraced sweeps instead, so that the
    // tracing overhead comes from its own pairs and the JIT still warming up
    // over the run biases neither side.
    val plan = if (o.trace) Seq(false, true, true, false) else Seq.fill(WarmSweeps)(false)
    val warm = mutable.ArrayBuffer.empty[Repeat]
    val warmStart = System.nanoTime()
    def elapsed = (System.nanoTime() - warmStart) / 1e9
    for (traced <- plan if warm.isEmpty || o.trace || elapsed + warm.last.wallS <= o.seconds) {
      warm += repeat(w, g, sc, counter, o.seed, traced)
      progress(f"${if (traced) "traced" else "warm"} sweep ${warm.last.wallS}%.3f s, ${warm.last.jobs} jobs, " +
        f"${warm.last.codegenCompiles} codegen compiles, jit ${warm.last.jitS}%.1f s")
    }

    // Checks, outside every timed region.
    val all = cold +: warm.toSeq
    val attempted = all.map(_.attempted).sum
    val failed = all.map(_.failed).sum
    val problems = mutable.ArrayBuffer.empty[String]
    val reference = Reference.read(Paths.get(o.referenceDir, s"${w.name}.tsv"))
    val atDefaultScale = o.scaleFactor == 1.0
    var detDev = 0.0
    if (atDefaultScale) reference match {
      case Some(ref) =>
        val atReferenceSeed = if (o.seed == ReferenceSeed) warm.toSeq else Nil
        detDev = (cold +: atReferenceSeed).map(Reference.maxDeviation(ref, _)).max
      case None => problems += s"no reference table for ${w.name}"
    }
    // The warm sweeps share one seed and core count: every cell must agree.
    warm.drop(1).foreach(r => detDev = math.max(detDev, Reference.maxDeviation(warm.head.table, r)))
    val shapeFailures =
      (if (atDefaultScale) all.flatMap(r => w.shape(r.table)) else Nil) ++ all.flatMap(_.rhoMisses)
    val shapeFail = shapeFailures.distinct
    val untracedJobs = all.filterNot(_.traced).map(_.jobs).distinct
    val tracedJobs = all.filter(_.traced).map(_.jobs).distinct
    if (untracedJobs.size > 1) problems += s"job count differs between untraced repeats: ${untracedJobs.mkString(", ")}"
    if (tracedJobs.size > 1) problems += s"job count differs between traced repeats: ${tracedJobs.mkString(", ")}"
    if (detDev > DetTolerance) problems += s"deterministic cells deviate by $detDev"
    if (failed > 0) problems += s"$failed of $attempted cells failed"
    problems ++= shapeFail
    problems.foreach(p => Console.err.println(s"[perfbench] check failed: $p"))

    val untraced = warm.filterNot(_.traced).toSeq
    val metrics: Seq[(String, String, Double)] =
      if (!o.trace) Seq(
        ("setup_s", "s", Stats.median(setupS.toSeq)),
        ("first_sweep_s", "s", cold.wallS),
        ("sweep_s", "s", Stats.median(untraced.map(_.wallS))),
        ("live_heap_mb", "MB", Stats.median(untraced.map(_.liveHeapMb))))
      else {
        val cells = untraced.flatMap(_.cellSeconds)
        val traced = warm.filter(_.traced).toSeq
        def med(name: String) = Stats.median(traced.map(_.layers(name)))
        val tracedS = Stats.median(traced.map(_.wallS))
        val untracedS = Stats.median(untraced.map(_.wallS))
        Layers.catalog.map { case (name, unit) =>
          val v = name match {
            case "graphs.build_s"         => Stats.median(buildS.toSeq)
            case "graphs.jobs"            => buildJobs.toDouble
            case "jvm.cold_gc_s"          => cold.gcS
            case "jvm.cold_jit_s"         => cold.jitS
            case "trace.sweep_s"          => tracedS
            case "trace.untraced_sweep_s" => untracedS
            case "trace.overhead_s"       => tracedS - untracedS
            case "sweep.cell_s.p50"       => Stats.median(cells)
            case "sweep.cell_s.p90"       => Stats.percentile(cells, 90)
            case other                    => med(other)
          }
          (name, unit, v)
        }
      }

    val cellCount = untraced.headOption.fold(0)(_.cellSeconds.size)
    val stamp = Seq(
      "workload" -> Json.str(w.name),
      "seed" -> o.seed.toString,
      "reference_seed" -> ReferenceSeed.toString,
      "trace" -> o.trace.toString,
      "scale" -> Json.num(scale),
      "graph_n" -> g.numVertices.toString,
      "graph_m" -> edges.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "local_n" -> cpus.toString,
      "java" -> Json.str(System.getProperty("java.version")),
      "scala" -> Json.str(scala.util.Properties.versionNumberString),
      "spark" -> Json.str(spark.version),
      "heap_max_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1e6),
      "shuffle_partitions" -> Json.str(spark.conf.get("spark.sql.shuffle.partitions")),
      "setup_repeats" -> setupS.size.toString,
      "warm_repeats" -> untraced.size.toString,
      "traced_repeats" -> warm.count(_.traced).toString,
      "cells_per_sweep" -> cellCount.toString,
      "cell_samples" -> untraced.map(_.cellSeconds.size).sum.toString,
      "jobs_per_sweep" -> Json.arr(all.map(r => r.jobs.toString)),
      "cell_fail_ratio" -> Json.num(failed.toDouble / math.max(1, attempted)),
      "det_cell_maxdev" -> Json.num(detDev),
      "shape_fail" -> shapeFail.size.toString,
      "problems" -> Json.arr(problems.toSeq.map(Json.str)))
    println("perfbench-stamp " + Json.obj(stamp))
    val result = Seq(
      "correct" -> problems.isEmpty.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { case (n, u, v) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }))
    println("perfbench-result " + Json.obj(result))
    spark.stop()
    progress("done")
    0
  }

  /** One sweep: clear the precompute caches, then (timed) the precompute
    * and every cell through `Sweep.runMulti`.
    */
  def repeat(
      w: Workload, g: SparkGraph, sc: SparkContext, counter: JobCounter,
      seed: Long, traced: Boolean): Repeat = {
    clearPrecompute()
    val recorder = new SpanRecorder
    val attribution = new JobAttribution
    val tracer: Tracer = if (traced) recorder else NoTrace
    PerfbenchBus.drain(sc)
    if (traced) {
      sc.addSparkListener(attribution)
      recorder.attach(sc)
    }
    val jobs0 = counter.jobs
    val log = new CellLog
    val sparsifiers = w.sparsifiers.map(new Timed(_, log, tracer))
    val gc0 = gcMs
    val jit0 = jitMs
    val codegen0 = PerfbenchBus.codegenCompiles
    val t0 = System.nanoTime()
    val rows = tracer.span("repeat") {
      if (w.usesSimilarity) tracer.span("precompute.similarity")(SimilarityScores.forGraph(g))
      if (w.usesEr) tracer.span("precompute.er")(EffectiveResistance.resistances(g, ErMaxN))
      tracer.span("sweep") {
        Sweep.runMulti(g, sparsifiers, w.rhos, seeds = 1)(
          Workloads.cellMetric(w.metrics, seed, log, tracer, probe = traced))
      }
    }
    val wallS = (System.nanoTime() - t0) / 1e9
    val gcS = (gcMs - gc0) / 1e3
    val jitS = (jitMs - jit0) / 1e3
    val codegen = PerfbenchBus.codegenCompiles - codegen0
    PerfbenchBus.drain(sc)
    if (traced) sc.removeSparkListener(attribution)
    val jobs = counter.jobs - jobs0
    val heapMb = liveHeapMb()
    val misses = for {
      row <- rows.head
      c <- row.cells
      miss <- Workloads.rhoMiss(row.sparsifier, c.rho, c.achievedRho)
    } yield miss
    val layers =
      if (traced) {
        val storageMb = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6
        Layers.of(w, g, recorder.spans, attribution, storageMb, gcS, jitS, codegen)
      }
      else Map.empty[String, Double]
    Repeat(traced, wallS, jobs, Table.fromRows(w.metricNames, rows),
      log.seconds.toSeq, log.attempted, log.failed, misses, heapMb, gcS, jitS, codegen, layers)
  }
}

/** Minimal JSON writer for the result lines. Non-finite numbers become null. */
object Json {
  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else java.lang.Double.toString(x)
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'           => "\\\""
      case '\\'          => "\\\\"
      case c if c < ' '  => f"\\u${c.toInt}%04x"
      case c             => c.toString
    } + "\""
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
  def obj(kvs: Seq[(String, String)]): String = kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** The committed table of cold-sweep cells at the reference seed, one line
  * per cell: abbreviation, target ρ, deterministic flag, achieved ρ, metric
  * values. Deterministic cells are always compared. Seeded cells (`Sweep`
  * fixes the sparsifier seeds) are compared only at the core count the table
  * was recorded with, since Spark's random draws follow the partitioning.
  */
object Reference {
  final case class Recorded(localN: Int, cells: Map[(String, Double), (Boolean, CellValue)])

  def write(path: java.nio.file.Path, w: Workload, r: Repeat): Unit = {
    val header = Seq(
      s"# ${w.name} cold sweep: seed=${Main.ReferenceSeed} local_n=${Main.cpus}",
      s"# abbrev rho deterministic achieved ${w.metricNames.mkString(" ")}")
    val deterministic = w.sparsifiers.filter(_.deterministic).map(_.abbrev).toSet
    val lines = r.table.cells.toSeq.sortBy(_._1).map { case ((ab, rho), c) =>
      (Seq(ab, rho.toString, deterministic(ab).toString, c.achieved.toString) ++ c.values.map(_.toString)).mkString("\t")
    }
    Files.createDirectories(path.toAbsolutePath.getParent)
    Files.write(path, (header ++ lines).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }

  def read(path: java.nio.file.Path): Option[Recorded] =
    if (!Files.isRegularFile(path)) None
    else {
      val lines = Files.readAllLines(path, StandardCharsets.UTF_8).asScala.toSeq
      val localN = lines.head.split("local_n=")(1).trim.toInt
      Some(Recorded(localN, lines.filterNot(l => l.startsWith("#") || l.trim.isEmpty).map { l =>
        val f = l.split("\t")
        (f(0), f(1).toDouble) -> (f(2).toBoolean, CellValue(f(3).toDouble, f.drop(4).map(_.toDouble).toSeq))
      }.toMap))
    }

  private def dev(a: Double, b: Double): Double =
    if (a.isNaN && b.isNaN) 0.0 else if (a.isNaN || b.isNaN) Double.PositiveInfinity else math.abs(a - b)

  private def maxDev(ref: CellValue, got: Option[CellValue]): Double = got match {
    case None    => Double.PositiveInfinity
    case Some(c) => (dev(ref.achieved, c.achieved) +: ref.values.zip(c.values).map { case (a, b) => dev(a, b) }).max
  }

  /** Largest deviation of a compared cell of `r` from the recorded table. */
  def maxDeviation(ref: Recorded, r: Repeat): Double = {
    val seededToo = ref.localN == Main.cpus
    ref.cells.collect { case (k, (det, c)) if det || seededToo => maxDev(c, r.table.cells.get(k)) }
      .foldLeft(0.0)(math.max)
  }

  /** Largest deviation of any cell of `r` from another repeat at the same seed. */
  def maxDeviation(ref: Table, r: Repeat): Double =
    ref.cells.map { case (k, c) => maxDev(c, r.table.cells.get(k)) }.foldLeft(0.0)(math.max)
}
