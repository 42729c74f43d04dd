package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GraphOps, SparkGraph}

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit); the session is [[repro.harness.SparkMaster.session]], the one the
  * jobs build: 64 shuffle partitions and no broadcast joins, as in
  * perfbench's session.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** The graph's edges as a DataFrame (src: Long, dst: Long, weight: Double)
    * for the DuckDB oracle and Catalyst-side checks: one partition in the
    * graph's edge order, so `rand(seed)` over it draws row i's key i-th.
    */
  def edgesDf(g: SparkGraph): DataFrame = {
    import spark.implicits._
    val (s, d, w) = GraphOps.collectEdges(g)
    spark.sparkContext.parallelize(s.indices.map(i => (s(i).toLong, d(i).toLong, w(i))), numSlices = 1)
      .toDF("src", "dst", "weight")
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = repro.harness.SparkMaster.session("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
