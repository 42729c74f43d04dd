package repro.core.sparsifiers

import java.nio.ByteBuffer
import scala.util.hashing.MurmurHash3
import repro.core.{PruneRateControl, SparkGraph, Sparsifier}

/** Uniform random edge sampling (§2.3.1) — the naive baseline: the k edges
  * with the smallest keys, ties by (src, dst). Edge i's key is the i-th draw
  * of [[RandomSparsifier.XorShift]] seeded by `seed`, which is the value
  * Spark's `rand(seed)` gives the i-th row of a one-partition plan, so the
  * sample follows the graph's edge order.
  */
final class RandomSparsifier extends Sparsifier {
  val name = "Random"; val abbrev = "RN"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val rng = new RandomSparsifier.XorShift(seed)
    val key = Array.fill(g.numEdges)(rng.nextDouble())
    EdgeRanking.keepSmallest(g, key, keepCount(g.numEdges, rho), s"RN-$rho-$seed")
  }
}

object RandomSparsifier {

  /** The stream of Spark's `XORShiftRandom` (private to Spark): the seed
    * hashed by two MurmurHash3 passes over its 8 big-endian bytes, then the
    * 21/35/4 xorshift, read through `java.util.Random`'s `nextDouble`.
    */
  final class XorShift(seed: Long) {
    private var state: Long = {
      val bytes = ByteBuffer.allocate(java.lang.Long.BYTES).putLong(seed).array()
      val lo = MurmurHash3.bytesHash(bytes, MurmurHash3.arraySeed)
      val hi = MurmurHash3.bytesHash(bytes, lo)
      (hi.toLong << 32) | (lo.toLong & 0xffffffffL)
    }

    private def next(bits: Int): Int = {
      state ^= state << 21
      state ^= state >>> 35
      state ^= state << 4
      (state & ((1L << bits) - 1)).toInt
    }

    /** Uniform in [0, 1), as `java.util.Random.nextDouble`. */
    def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) / (1L << 53).toDouble
  }
}
