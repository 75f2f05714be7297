package repro.core

import repro.ml.Rows

/** Pearson redundancy removal — Algorithm 4 and Table II of the paper.
  *
  * As printed, Algorithm 4 only ever *adds* a member of each correlated
  * pair and never emits uncorrelated features — a pseudocode bug. We
  * implement the stated intent ("if |ρ| > θ the feature with the smaller IV
  * is removed"): scan features in descending IV order and keep one iff its
  * |ρ| with every already-kept feature is ≤ θ.
  */
object Correlation {

  /** Table II rule of thumb: |ρ| > 0.8 = "extremely strong correlation". */
  val DefaultTheta = 0.8

  /** Pearson matrix (Eq. 7) of columns `cols` of `rows`: one pass of the
    * moments update accumulating sums, squares and upper-triangle cross
    * products.
    */
  def matrix(rows: Rows[Rows.Labeled], cols: Array[Int]): Array[Array[Double]] = {
    val c = cols.length
    if (c == 0) return Array.empty
    // layout: [0,c) sums | [c,2c) sumsq | [2c, 2c + c(c+1)/2) upper-tri cross | [last] n
    val flat = rows.sum(2 * c + c * (c + 1) / 2 + 1) { case (acc, (x, _)) =>
      var t = 2 * c
      var i = 0
      while (i < c) {
        val v = x(cols(i))
        acc(i) += v
        acc(c + i) += v * v
        var k = i
        while (k < c) { acc(t) += v * x(cols(k)); t += 1; k += 1 }
        i += 1
      }
      acc(acc.length - 1) += 1.0
    }
    val cross = Array.ofDim[Double](c, c)
    var t = 2 * c
    for (i <- 0 until c; k <- i until c) { cross(i)(k) = flat(t); cross(k)(i) = flat(t); t += 1 }
    fromSums((flat.take(c), flat.slice(c, 2 * c), cross), c, flat.last.toLong)
  }

  private def fromSums(sums: (Array[Double], Array[Double], Array[Array[Double]]),
                       c: Int, n: Long): Array[Array[Double]] = {
    val (s, sq, cross) = sums
    val out = Array.ofDim[Double](c, c)
    var i = 0
    while (i < c) {
      var k = 0
      while (k < c) {
        if (i == k) out(i)(k) = 1.0
        else {
          val cov = cross(i)(k) - s(i) * s(k) / n
          val vi = sq(i) - s(i) * s(i) / n
          val vk = sq(k) - s(k) * s(k) / n
          val r = if (vi <= 1e-12 || vk <= 1e-12) 0.0 else cov / math.sqrt(vi * vk)
          // moments that overflow (|v| ~ 1e300) read as uncorrelated, like a
          // constant column; rounding past ±1 is clamped
          out(i)(k) = if (java.lang.Double.isFinite(r)) math.max(-1.0, math.min(1.0, r)) else 0.0
        }
        k += 1
      }
      i += 1
    }
    out
  }

  /** Algorithm 4 (intent): greedy keep in descending IV order; drop any
    * feature whose |ρ| with an already-kept feature exceeds θ.
    */
  def removeRedundant(names: Seq[String], ivs: Map[String, Double],
                      corr: Array[Array[Double]],
                      theta: Double = DefaultTheta): Seq[String] = {
    require(corr.length == names.length, "corr matrix must match names")
    val order = names.indices.sortBy(i => -ivs.getOrElse(names(i), 0.0))
    val kept = scala.collection.mutable.ArrayBuffer.empty[Int]
    order.foreach { i =>
      if (kept.forall(j => math.abs(corr(i)(j)) <= theta)) kept += i
    }
    kept.sorted.map(names(_)).toSeq
  }
}
