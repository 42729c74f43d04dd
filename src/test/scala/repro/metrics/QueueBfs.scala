package repro.metrics

/** Test oracle: the plain single-source queue BFS over a CSR. `dist` holds
  * hop counts (-1 = not reached) and `order(0 until reached)` the reached
  * vertices in visit order, the queue itself. Each search resets only the
  * vertices that the previous one reached.
  */
final class QueueBfs(c: Csr) {
  val dist: Array[Int] = Array.fill(c.n)(-1)
  val order: Array[Int] = new Array[Int](c.n)
  var reached = 0

  def run(s: Int): Unit = {
    var i = 0
    while (i < reached) { dist(order(i)) = -1; i += 1 }
    dist(s) = 0; order(0) = s
    var head = 0; var tail = 1
    while (head < tail) {
      val u = order(head); head += 1
      i = c.offsets(u)
      while (i < c.offsets(u + 1)) {
        val v = c.nbrs(i)
        if (dist(v) < 0) { dist(v) = dist(u) + 1; order(tail) = v; tail += 1 }
        i += 1
      }
    }
    reached = tail
  }
}

object QueueBfs {

  /** Hop counts from `s`; -1 = unreachable. */
  def distances(c: Csr, s: Int): Array[Int] = { val b = new QueueBfs(c); b.run(s); b.dist.clone() }

  /** Component labels by one BFS per unlabelled vertex, in vertex order. */
  def components(c: Csr): Array[Int] = {
    val comp = Array.fill(c.n)(-1)
    val b = new QueueBfs(c)
    var label = 0
    for (v <- 0 until c.n if comp(v) < 0) {
      b.run(v)
      (0 until b.reached).foreach(i => comp(b.order(i)) = label)
      label += 1
    }
    comp
  }

  /** Two-pass Brandes betweenness on `c`: the BFS, then a σ pass in visit
    * order, then the backward pass in reverse visit order that re-scans
    * each row for neighbours one hop closer.
    */
  def betweenness(c: Csr): Array[Double] = {
    val (off, nbrs) = (c.offsets, c.nbrs)
    val bc = new Array[Double](c.n)
    val sigma = new Array[Double](c.n)
    val delta = new Array[Double](c.n)
    val b = new QueueBfs(c)
    val (dist, order) = (b.dist, b.order)
    for (s <- 0 until c.n) {
      b.run(s)
      sigma(s) = 1.0
      for (k <- 0 until b.reached) {
        val u = order(k)
        for (i <- off(u) until off(u + 1)) if (dist(nbrs(i)) == dist(u) + 1) sigma(nbrs(i)) += sigma(u)
      }
      for (k <- b.reached - 1 to 0 by -1) {
        val w = order(k)
        for (i <- off(w) until off(w + 1)) {
          val u = nbrs(i)
          if (dist(u) == dist(w) - 1) delta(u) += sigma(u) / sigma(w) * (1.0 + delta(w))
        }
        if (w != s) bc(w) += delta(w)
        sigma(w) = 0.0; delta(w) = 0.0
      }
    }
    bc
  }
}
