package repro.core

import java.util.concurrent.CountDownLatch
import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite

/** `OnceCache`: one computation per key under contention, and a failed
  * computation leaves no entry behind.
  */
class OnceCacheSpec extends AnyFunSuite {

  test("two threads that ask for the same key at once share one computation") {
    for (round <- 0 until 5) {
      val cache = new OnceCache[String, Array[Int]]
      val computations = new AtomicInteger(0)
      val start = new CountDownLatch(1)
      val results = new Array[Array[Int]](2)
      val threads = Array.tabulate(2) { t =>
        new Thread(() => {
          start.await()
          results(t) = cache.getOrCompute("key") { computations.incrementAndGet(); Thread.sleep(100); Array(round) }
        })
      }
      threads.foreach(_.start())
      start.countDown()
      threads.foreach(_.join())
      assert(computations.get === 1, s"round $round")
      assert(results(0) eq results(1))
    }
  }

  test("a computation that throws is removed, so the next call retries") {
    val cache = new OnceCache[Int, String]
    val calls = new AtomicInteger(0)
    intercept[ArithmeticException](cache.getOrCompute(1) { calls.incrementAndGet(); throw new ArithmeticException })
    assert(cache.getOrCompute(1) { calls.incrementAndGet(); "ok" } === "ok")
    assert(cache.getOrCompute(1) { calls.incrementAndGet(); "again" } === "ok")
    assert(calls.get === 2)
  }

  test("clear drops every entry") {
    val cache = new OnceCache[Int, Int]
    assert(cache.getOrCompute(1)(10) === 10)
    cache.clear()
    assert(cache.getOrCompute(1)(20) === 20)
  }
}
