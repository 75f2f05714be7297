package repro.perfbench

/** Order statistics over one run's samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Tail latency: the highest percentile that still has at least ten
    * samples above it. Returns (value, percentile, samples beyond); with ten
    * or fewer samples there is no such percentile and the median stands in.
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s = xs.sorted
    val n = s.length
    if (n <= 10) (median(s), 50.0, n / 2)
    else {
      val k = n - 11
      (s(k), 100.0 * (k + 1) / n, n - 1 - k)
    }
  }

  /** First quartile, median, third quartile (linear interpolation). */
  def quartiles(xs: Seq[Double]): Seq[Double] = {
    val s = xs.sorted
    Seq(0.25, 0.5, 0.75).map { q =>
      val pos = q * (s.length - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.length - 1)
      s(lo) + (pos - lo) * (s(hi) - s(lo))
    }
  }
}
