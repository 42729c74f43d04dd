package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.DriverPool

/** The local Spark session of the tests, the bench and the jobs. */
object SparkMaster {

  /** `SPARK_MASTER` when set; else `local[N]` with N = [[DriverPool.cores]],
    * `min(SPARK_GRAFT_CPUS, nproc)` or `nproc`.
    */
  def fromEnv: String = sys.env.getOrElse("SPARK_MASTER", s"local[${DriverPool.cores}]")

  /** Master `fromEnv`, no broadcast joins and 64 shuffle partitions, which
    * fix each dataset's edge order and so every seeded result.
    */
  def session(appName: String): SparkSession =
    SparkSession.builder().master(fromEnv).appName(appName)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
