package repro.harness

/** Spark master URL for the local sessions of the tests and the jobs:
  * `SPARK_MASTER` when set; else `local[min(SPARK_GRAFT_CPUS, nproc)]` when
  * `SPARK_GRAFT_CPUS` is a positive integer; else `local[*]`.
  */
object SparkMaster {
  def fromEnv: String = sys.env.getOrElse("SPARK_MASTER", {
    val nproc = Runtime.getRuntime.availableProcessors()
    sys.env.get("SPARK_GRAFT_CPUS").flatMap(_.trim.toIntOption).filter(_ > 0)
      .fold("local[*]")(c => s"local[${math.min(c, nproc)}]")
  })
}
