package repro.core

import java.util.concurrent.{ConcurrentHashMap, ForkJoinPool}
import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** `DriverPool.forEach` and `forEachWith`: each index runs once, the first
  * exception comes back to the caller, a pool of one (or a single task)
  * stays on the calling thread, and each worker builds its scratch once.
  */
class DriverPoolSpec extends AnyFunSuite with BeforeAndAfterAll {

  private val four = new ForkJoinPool(4)

  override def afterAll(): Unit = { four.shutdown(); super.afterAll() }

  test("every index runs exactly once") {
    for (count <- Seq(0, 1, 3, 4, 5, 1000)) {
      val runs = new AtomicIntegerArray(count)
      DriverPool.forEach(four, count)(i => runs.incrementAndGet(i))
      assert((0 until count).forall(runs.get(_) == 1), s"forEach, count $count")
      val withScratch = new AtomicIntegerArray(count)
      DriverPool.forEachWith(four, count)(new Object)((_, i) => withScratch.incrementAndGet(i))
      assert((0 until count).forall(withScratch.get(_) == 1), s"forEachWith, count $count")
    }
  }

  test("the first exception is rethrown, on the pool and on the calling thread") {
    for (pool <- Seq(four, DriverPool.callingThread)) {
      val boom = new IllegalStateException("index 17")
      val thrown = intercept[IllegalStateException] {
        DriverPool.forEach(pool, 100)(i => if (i == 17) throw boom)
      }
      assert(thrown eq boom)
      // every index throws: one of them comes back, and the call returns
      val any = intercept[RuntimeException](DriverPool.forEach(pool, 100)(i => throw new RuntimeException(s"$i")))
      assert(any.getMessage.toInt >= 0)
    }
  }

  test("a failing init is rethrown like a failing task") {
    val boom = new IllegalArgumentException("init")
    assert(intercept[IllegalArgumentException](DriverPool.forEachWith[Unit](four, 8)(throw boom)((_, _) => ())) eq boom)
  }

  test("DriverPool.callingThread, or a single task, runs on the calling thread and starts no worker") {
    val caller = Thread.currentThread
    val fresh = new ForkJoinPool(4)
    try {
      val ran = new ConcurrentHashMap[Thread, Unit]
      DriverPool.forEach(fresh, 1)(_ => ran.put(Thread.currentThread, ()))
      DriverPool.forEachWith(fresh, 1)(ran.put(Thread.currentThread, ()))((_, _) => ran.put(Thread.currentThread, ()))
      DriverPool.forEach(DriverPool.callingThread, 50)(_ => ran.put(Thread.currentThread, ()))
      DriverPool.forEachWith(DriverPool.callingThread, 50)(ran.put(Thread.currentThread, ()))(
        (_, _) => ran.put(Thread.currentThread, ()))
      assert(ran.keySet.asScala.toSet === Set(caller))
      assert(fresh.getPoolSize === 0)
      assert(DriverPool.callingThread.getPoolSize === 0)
    } finally fresh.shutdown()
  }

  test("init runs at most once per worker, and never for a worker that claims no index") {
    final class Scratch(val owner: Thread)
    for (count <- Seq(0, 1, 2, 3, 4, 7, 400)) {
      val inits = new AtomicInteger(0)
      val users = new ConcurrentHashMap[Scratch, Thread]
      DriverPool.forEachWith(four, count) { inits.incrementAndGet(); new Scratch(Thread.currentThread) } { (s, _) =>
        assert(s.owner eq Thread.currentThread, "a scratch is used only by the worker that built it")
        users.put(s, s.owner)
        if (count <= 4) Thread.sleep(5) // let every worker claim an index at small counts
      }
      // every scratch built was used, so no worker built one without an index
      assert(inits.get === users.size, s"count $count")
      assert(users.values.asScala.toSet.size === users.size, s"count $count: one scratch per worker")
      assert(inits.get <= math.min(count, four.getParallelism), s"count $count")
    }
  }
}
