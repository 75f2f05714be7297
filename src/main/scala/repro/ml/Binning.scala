package repro.ml

import org.apache.spark.sql.DataFrame

/** Quantile feature binning — the discretization substrate shared by the
  * GBDT (histogram splits), the IV filter (equal-frequency bins, Alg. 3) and
  * the comparators' information-gain scoring.
  *
  * Bin semantics: `edges` are strictly increasing interior cut points;
  * value v lands in bin `#edges ≤ v` counted from the left, i.e.
  * `bin(v) = upperBound(edges, v)` with v ≤ edges(0) → 0 and
  * v > edges(last) → edges.length. A feature with e edges has e+1 bins.
  */
object Binning {

  /** Exact equal-frequency interior edges for one column (≤ maxBins bins).
    * Duplicate quantiles are collapsed, so constant columns yield 0 edges.
    */
  def quantileEdges(values: Array[Double], maxBins: Int): Array[Double] = {
    require(maxBins >= 2, "need at least 2 bins")
    if (values.isEmpty) return Array.empty
    val sorted = values.clone()
    java.util.Arrays.sort(sorted)
    val n = sorted.length
    val edges = (1 until maxBins).map { q =>
      sorted(math.min(n - 1, (q.toLong * n / maxBins).toInt))
    }.distinct.toArray
    // Drop the global max as an edge: everything would land left of it anyway,
    // and keeping it can create an empty top bin.
    val mx = sorted(n - 1)
    edges.filter(_ < mx)
  }

  /** Bin index of `v` given interior `edges` (see class doc). */
  def binOf(v: Double, edges: Array[Double]): Int = {
    var lo = 0
    var hi = edges.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (v <= edges(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  /** Per-bin (#pos, #neg) label counts of `values` under interior `edges`. */
  def classCounts(values: Array[Double], labels: Array[Double],
                  edges: Array[Double]): (Array[Double], Array[Double]) = {
    val pos = new Array[Double](edges.length + 1)
    val neg = new Array[Double](edges.length + 1)
    var i = 0
    while (i < values.length) {
      val b = binOf(values(i), edges)
      if (labels(i) > 0.5) pos(b) += 1 else neg(b) += 1
      i += 1
    }
    (pos, neg)
  }

  /** Per-column interior edges for a whole matrix. */
  def fitLocal(m: LocalMatrix, maxBins: Int): Array[Array[Double]] =
    Array.tabulate(m.cols)(j => quantileEdges(m.column(j), maxBins))

  /** Per-column interior edges computed by Spark's approximate quantiles —
    * the distributed path used on business-scale data. `labelCol` excluded.
    */
  def fitSpark(df: DataFrame, featNames: Array[String], maxBins: Int,
               relErr: Double = 0.001): Array[Array[Double]] = {
    require(maxBins >= 2, "need at least 2 bins")
    import org.apache.spark.sql.functions.max
    val probs = (1 until maxBins).map(_.toDouble / maxBins).toArray
    val qs = df.stat.approxQuantile(featNames, probs, relErr)
    val maxRow = df.agg(max(featNames.head), featNames.tail.map(max(_)).toIndexedSeq: _*).head()
    featNames.indices.map { j =>
      val colMax = if (maxRow.isNullAt(j)) Double.PositiveInfinity
                   else maxRow.get(j).toString.toDouble
      // Same contract as quantileEdges: strictly increasing, below column max.
      qs(j).distinct.sorted.filter(_ < colMax)
    }.toArray
  }

  /** Bin codes of one row under per-column edges. Bin counts must fit a
    * byte (maxBins ≤ 127 enforced upstream).
    */
  def binRow(row: Array[Double], edges: Array[Array[Double]]): Array[Byte] = {
    val b = new Array[Byte](edges.length)
    var j = 0
    while (j < edges.length) { b(j) = binOf(row(j), edges(j)).toByte; j += 1 }
    b
  }

  /** Apply per-column edges to a matrix, producing row-major bin codes. */
  def applyLocal(m: LocalMatrix, edges: Array[Array[Double]]): Array[Array[Byte]] = {
    require(edges.length == m.cols, "edges width mismatch")
    m.x.map(binRow(_, edges))
  }

  /** Number of bins per column implied by `edges`. */
  def binCounts(edges: Array[Array[Double]]): Array[Int] = edges.map(_.length + 1)
}
