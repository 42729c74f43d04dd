package repro.core

import java.util.concurrent.atomic.AtomicInteger
import java.util.concurrent.{ForkJoinPool, ForkJoinTask, RecursiveAction}
import scala.jdk.CollectionConverters._

/** The driver's cores and its one fixed thread pool.
  *
  * `cores` is `min(SPARK_GRAFT_CPUS, nproc)` when `SPARK_GRAFT_CPUS` is a
  * positive integer, else `nproc`; the local Spark master
  * ([[repro.harness.SparkMaster]]) and `shared` are both sized by it.
  */
object DriverPool {

  val cores: Int = {
    val nproc = Runtime.getRuntime.availableProcessors()
    sys.env.get("SPARK_GRAFT_CPUS").flatMap(_.trim.toIntOption).filter(_ > 0)
      .fold(nproc)(math.min(_, nproc))
  }

  /** Daemon worker threads, so an idle pool never keeps the JVM alive. */
  lazy val shared: ForkJoinPool = new ForkJoinPool(cores)

  /** A pool of parallelism 1: `forEach` on it runs every index on the
    * calling thread and starts no worker.
    */
  lazy val callingThread: ForkJoinPool = new ForkJoinPool(1)

  /** Runs `f(0) … f(count − 1)` on `pool` and returns when all are done.
    * Up to `pool.getParallelism` workers claim indices in ascending order,
    * so put the longest tasks first. The first exception is rethrown.
    */
  def forEach(pool: ForkJoinPool, count: Int)(f: Int => Unit): Unit = {
    val next = new AtomicInteger(0)
    val worker: Runnable = () => {
      var i = next.getAndIncrement()
      while (i < count) { f(i); i = next.getAndIncrement() }
    }
    val workers = math.min(count, pool.getParallelism)
    if (workers <= 1) worker.run()
    else pool.invoke(new RecursiveAction {
      def compute(): Unit = ForkJoinTask.invokeAll(Seq.fill(workers)(ForkJoinTask.adapt(worker)).asJava)
    })
  }
}
