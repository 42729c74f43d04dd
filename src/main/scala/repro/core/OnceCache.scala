package repro.core

import java.util.concurrent.ConcurrentHashMap

/** A concurrent cache that computes each entry once. `getOrCompute` puts a
  * lazy holder with `putIfAbsent` and forces it after the put, so threads
  * that ask for the same key at once share one computation (unlike
  * `TrieMap.getOrElseUpdate`, which may run it in each of them). If the
  * computation throws, the entry is removed, so the next call retries it
  * instead of reading a poisoned value.
  */
final class OnceCache[K, V] {

  private final class Once(compute: () => V) { lazy val value: V = compute() }

  private val entries = new ConcurrentHashMap[K, Once]

  def getOrCompute(key: K)(compute: => V): V = {
    val fresh = new Once(() => compute)
    val once = entries.putIfAbsent(key, fresh) match { case null => fresh; case held => held }
    try once.value
    catch { case t: Throwable => entries.remove(key, once); throw t }
  }

  def clear(): Unit = entries.clear()
}
