package perfbench

/** Sample statistics used for every reported timing. */
object Stats {

  /** Median; the mean of the two middle samples for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile: the smallest sample with at least `p` percent
    * of the samples at or below it.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p > 0 && p <= 100, s"percentile $p out of (0, 100]")
    val s = xs.sorted
    s(math.ceil(p / 100.0 * s.size).toInt - 1)
  }
}
