package perfbench

import java.util.Properties
import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval at a layer boundary. `childNs` is the part of the
  * interval covered by direct child spans, so `selfNs` is the span's own work.
  */
final class Span(val id: Int, val name: String, val parent: Option[Span], val startNs: Long) {
  var endNs: Long = -1L
  var childNs: Long = 0L
  def durationNs: Long = endNs - startNs
  def selfNs: Long = durationNs - childNs
}

/** Wraps a call into a layer. The untraced run uses [[NoTrace]]. */
trait Tracer {
  def span[T](name: String)(body: => T): T
}

object NoTrace extends Tracer {
  def span[T](name: String)(body: => T): T = body
}

/** In-memory span recorder. Spans nest on one caller thread; whenever the
  * innermost open span changes, the id of the new one is published as a
  * Spark local property, so every job the thread submits carries the span
  * that caused it (see [[JobAttribution]]).
  */
final class SpanRecorder(clock: () => Long = () => System.nanoTime()) extends Tracer {
  private val recorded = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil
  private var sc: Option[SparkContext] = None

  /** Tag the jobs this thread submits to `ctx` with the innermost span. */
  def attach(ctx: SparkContext): Unit = { sc = Some(ctx); publish() }

  private def publish(): Unit =
    sc.foreach(_.setLocalProperty(SpanRecorder.Property, open.headOption.map(_.id.toString).orNull))

  def begin(name: String): Span = {
    val s = new Span(recorded.size, name, open.headOption, clock())
    recorded += s
    open = s :: open
    publish()
    s
  }

  def end(s: Span): Unit = {
    require(open.headOption.contains(s), s"span ${s.name} closed out of order")
    s.endNs = clock()
    s.parent.foreach(_.childNs += s.durationNs)
    open = open.tail
    publish()
  }

  def span[T](name: String)(body: => T): T = {
    val s = begin(name)
    try body finally end(s)
  }

  def spans: Seq[Span] = recorded.toSeq
}

object SpanRecorder {
  val Property = "perfbench.span"
  /** Span id a job or stage was submitted under; -1 when outside any span. */
  def spanOf(props: Properties): Int =
    Option(props).flatMap(p => Option(p.getProperty(Property))).map(_.toInt).getOrElse(-1)
}

/** Spark work attributed to one span. `jobMs` sums the wall-clock of the
  * span's jobs (submit to end), i.e. the time the caller waited on Spark.
  */
final class SpanCounts {
  var jobs = 0
  var stages = 0
  var tasks = 0L
  var shuffleBytes = 0L
  var jobMs = 0L
}

/** Listener that attributes each job, stage, task and shuffle byte to the
  * span that was innermost when the job was submitted. Shuffle bytes are
  * the bytes written by shuffle map tasks (each shuffled byte counts once).
  */
final class JobAttribution extends SparkListener {
  private val counts = mutable.Map.empty[Int, SpanCounts]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val running = mutable.Map.empty[Int, (Long, Int)]

  private def at(span: Int): SpanCounts = counts.getOrElseUpdate(span, new SpanCounts)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = SpanRecorder.spanOf(e.properties)
    at(span).jobs += 1
    e.stageIds.foreach(id => stageSpan(id) = span)
    running(e.jobId) = (e.time, span)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    at(stageSpan.getOrElse(e.stageInfo.stageId, SpanRecorder.spanOf(e.properties))).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = at(stageSpan.getOrElse(e.stageId, -1))
    c.tasks += 1
    if (e.taskMetrics != null) c.shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    running.remove(e.jobId).foreach { case (t0, span) => at(span).jobMs += e.time - t0 }
  }

  def of(span: Int): SpanCounts = synchronized(counts.getOrElse(span, new SpanCounts))
}

/** Counts submitted jobs; cheap enough for the untraced run, where it backs
  * the repeat-hygiene check (same job count in every repeat).
  */
final class JobCounter extends SparkListener {
  @volatile private var n = 0L
  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { n += 1 }
  def jobs: Long = n
}

/** Per-layer figures of one traced repeat, aggregated from its spans. */
final case class LayerTotals(
    seconds: Double, selfSeconds: Double, jobs: Int, stages: Int, tasks: Long,
    shuffleMb: Double, sparkSeconds: Double)

object LayerTotals {
  /** Totals over every recorded span that satisfies `select`. */
  def of(spans: Seq[Span], attribution: JobAttribution)(select: Span => Boolean): LayerTotals = {
    val hit = spans.filter(select)
    val cs = hit.map(s => attribution.of(s.id))
    LayerTotals(
      seconds = hit.map(_.durationNs).sum / 1e9,
      selfSeconds = hit.map(_.selfNs).sum / 1e9,
      jobs = cs.map(_.jobs).sum,
      stages = cs.map(_.stages).sum,
      tasks = cs.map(_.tasks).sum,
      shuffleMb = cs.map(_.shuffleBytes).sum / 1e6,
      sparkSeconds = cs.map(_.jobMs).sum / 1e3)
  }
}
