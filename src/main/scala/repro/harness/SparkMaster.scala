package repro.harness

import repro.core.DriverPool

/** Spark master URL for the local sessions of the tests and the jobs:
  * `SPARK_MASTER` when set; else `local[N]` with N = [[DriverPool.cores]],
  * `min(SPARK_GRAFT_CPUS, nproc)` or `nproc`.
  */
object SparkMaster {
  def fromEnv: String = sys.env.getOrElse("SPARK_MASTER", s"local[${DriverPool.cores}]")
}
