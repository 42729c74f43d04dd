package perfbench

import scala.collection.mutable
import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession

/** Self-tests of the benchmark's own arithmetic: span self time, job
  * attribution to the innermost span, and percentile selection. Run with
  * `python3 perfbench/run.py --self-test`; exits non-zero on a failure.
  */
object SelfTest {

  private val failures = mutable.ArrayBuffer.empty[String]
  private var checks = 0

  private def check(what: String)(cond: Boolean): Unit = {
    checks += 1
    println(s"${if (cond) "ok  " else "FAIL"} $what")
    if (!cond) failures += what
  }

  /** A clock that returns the given instants in order. */
  private def scripted(ts: Long*): () => Long = {
    val it = ts.iterator
    () => it.next()
  }

  def selfTime(): Unit = {
    // root [0,100] > a [10,30], b [40,70] > c [45,55]
    val r = new SpanRecorder(scripted(0, 10, 30, 40, 45, 55, 70, 100))
    r.span("root") {
      r.span("a")(())
      r.span("b")(r.span("c")(()))
    }
    val by = r.spans.map(s => s.name -> s).toMap
    check("self time of a span excludes its direct children")(by("root").selfNs == 50)
    check("self time counts a grandchild only once")(by("b").selfNs == 20 && by("c").selfNs == 10)
    check("a leaf's self time is its duration")(by("a").selfNs == 20 && by("a").durationNs == 20)
    check("parents link to the enclosing span")(
      by("c").parent.contains(by("b")) && by("a").parent.contains(by("root")) && by("root").parent.isEmpty)
    val t = LayerTotals.of(r.spans, new JobAttribution)(_.name != "root")
    check("layer totals sum durations and self times")(
      math.abs(t.seconds - 60e-9) < 1e-15 && math.abs(t.selfSeconds - 50e-9) < 1e-15)
    val bad = new SpanRecorder(scripted(0, 1, 2))
    val outer = bad.begin("outer")
    bad.begin("inner")
    check("closing a span out of order is refused")(
      scala.util.Try(bad.end(outer)).isFailure)
  }

  def percentiles(): Unit = {
    val tenth = (1 to 10).map(_.toDouble)
    check("p90 of 1..10 is 9 (nearest rank)")(Stats.percentile(tenth, 90) == 9.0)
    check("p90 of 1..100 is 90")(Stats.percentile((1 to 100).map(_.toDouble), 90) == 90.0)
    check("p100 is the maximum and p1 the minimum")(
      Stats.percentile(tenth, 100) == 10.0 && Stats.percentile(tenth, 1) == 1.0)
    check("percentile ignores input order")(Stats.percentile(tenth.reverse, 90) == 9.0)
    check("median of an odd count is the middle sample")(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    check("median of an even count averages the middle two")(Stats.median(tenth) == 5.5)
    check("a single sample is every percentile")(Stats.percentile(Seq(4.0), 50) == 4.0 && Stats.median(Seq(4.0)) == 4.0)
  }

  def attribution(): Unit = {
    val spark = SparkSession.builder.master("local[2]").appName("perfbench-selftest")
      .config("spark.ui.enabled", false).config("spark.driver.host", "127.0.0.1").getOrCreate()
    val sc = spark.sparkContext
    sc.setLogLevel("WARN")
    try {
      val attr = new JobAttribution
      sc.addSparkListener(attr)
      val r = new SpanRecorder
      r.attach(sc)
      sc.parallelize(1 to 10).count() // outside every span
      r.span("outer") {
        sc.parallelize(1 to 10, 2).count()
        r.span("inner") {
          sc.parallelize(1 to 100, 4).map(x => (x % 3, x)).reduceByKey(_ + _, 3).collect()
          sc.parallelize(1 to 10, 2).count()
        }
      }
      PerfbenchBus.drain(sc)
      val by = r.spans.map(s => s.name -> attr.of(s.id)).toMap
      val none = attr.of(-1)
      check("a job outside every span is unattributed")(none.jobs == 1 && none.tasks == 2)
      check("jobs go to the innermost open span only")(by("outer").jobs == 1 && by("inner").jobs == 2)
      check("stages follow their job's span")(by("outer").stages == 1 && by("inner").stages == 3)
      check("tasks follow their stage's span")(by("outer").tasks == 2 && by("inner").tasks == 4 + 3 + 2)
      check("shuffle bytes are counted where the shuffle is written")(
        by("inner").shuffleBytes > 0 && by("outer").shuffleBytes == 0)
      check("job wall time is recorded per span")(by("inner").jobMs >= 0 && by("inner").jobMs <= r.spans(1).durationNs / 1e6 + 1)
      check("the span property is cleared when the last span closes")(
        sc.getLocalProperty(SpanRecorder.Property) == null)
    } finally spark.stop()
  }

  def main(args: Array[String]): Unit = {
    selfTime()
    percentiles()
    attribution()
    println(s"${checks - failures.size}/$checks checks passed")
    sys.exit(if (failures.isEmpty) 0 else 1)
  }
}
