package repro.metrics

import scala.util.Random
import scala.util.hashing.MurmurHash3
import repro.SparkSpec
import repro.graphs.GraphGen

/** `Csr.UnionFind` and what runs on it: component labels against the BFS
  * labelling they replaced, and `GraphGen.connect`'s output pinned on the
  * generator inputs of three datasets.
  */
class UnionFindSpec extends SparkSpec {

  test("union reports whether it joined two sets; labels number sets by smallest element") {
    val uf = new Csr.UnionFind(6)
    assert(uf.union(4, 1) && uf.union(5, 3) && uf.union(1, 2))
    assert(!uf.union(2, 4))
    assert(uf.find(1) === uf.find(2) && uf.find(3) != uf.find(1))
    assert(uf.labels().toSeq === Seq(0, 1, 1, 2, 1, 2))
  }

  test("component labels equal the BFS labelling (40 random graphs, isolated vertices, many components)") {
    val rng = new Random(17)
    (0 until 40).foreach { it =>
      val n = 5 + rng.nextInt(200)
      // about n/2 edges on the first 90% of the vertices: many small components, an isolated tail
      val used = math.max(2, n * 9 / 10)
      val m = rng.nextInt(n / 2 + 1)
      val src = Array.fill(m)(rng.nextInt(used)); val dst = Array.fill(m)(rng.nextInt(used))
      val c = Csr.fromArrays(n, src, dst, Array.fill(m)(1.0), bothDirections = true)
      assert(c.components().toSeq === QueueBfs.components(c).toSeq, s"graph $it")
      assert(c.components() eq c.components())
    }
  }

  /** (digest, count) of `GraphGen.connect`'s sorted output; the values are
    * those of the private union-find that `connect` had before `UnionFind`.
    */
  private def digest(pairs: Set[(Int, Int)]): (Int, Int) =
    (MurmurHash3.seqHash(pairs.toSeq.sorted), pairs.size)

  // The generator inputs of `Datasets` at scale 0.25 (n = max(8, ⌊base · 0.25⌋)).
  test("connect is pinned on the com-Amazon, Reddit and ogbn-proteins inputs at scale 0.25") {
    val amazon = GraphGen.connect(GraphGen.sbm(600, 48, pIn = 0.12, pOut = 0.0004, seed = 37), 600, 41)
    val reddit = GraphGen.connect(
      GraphGen.sbm(500, 8, pIn = 0.08, pOut = 0.004, seed = 97) ++ GraphGen.barabasiAlbert(500, 3, 99), 500, 101)
    val proteins = GraphGen.connect(
      GraphGen.sbm(375, 2, pIn = 0.05, pOut = 0.008, seed = 103) ++ GraphGen.barabasiAlbert(375, 3, 105), 375, 107)
    assert(Seq(digest(amazon), digest(reddit), digest(proteins)) ===
      Seq((955690438, 642), (1418907698, 3127), (1288000031, 3133)))
  }
}
