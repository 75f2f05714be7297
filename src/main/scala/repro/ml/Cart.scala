package repro.ml

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** CART hyper-parameters for the classifier substrate (DT / RF / ET / AB). */
final case class CartParams(
    maxDepth: Int = 10,
    minSamplesLeaf: Int = 2,
    maxBins: Int = 32,
    minImpurityDecrease: Double = 1e-7,
    /** candidate features per node: None = all, Some(k) = random k (RF/ET). */
    featureSubset: Option[Int] = None,
    /** Extra-Trees mode: one random threshold per candidate feature. */
    randomThresholds: Boolean = false)

/** A fitted CART; reuses the GBDT node encoding with leaf weight = P(y=1). */
final case class CartModel(nodes: Array[Node], edges: Array[Array[Double]]) {
  def predictProba(row: Array[Double]): Double = TreeOps.predict(nodes, Binning.binRow(row, edges))
  def predictProba(m: LocalMatrix): Array[Double] = m.x.map(predictProba)
}

/** Weighted gini-impurity decision tree over histogram bins — the substrate
  * for the paper's DT / RF / ET / AdaBoost evaluation classifiers.
  */
object Cart {

  def fit(m: LocalMatrix, params: CartParams = CartParams(),
          weights: Option[Array[Double]] = None, seed: Long = 0): CartModel = {
    val edges = Binning.fitLocal(m, params.maxBins)
    val bins = Binning.applyLocal(m, edges)
    fitBinned(bins, m.y, edges, params, weights, seed)
  }

  /** Fit on pre-binned rows (lets a forest bin once and fit many trees). */
  def fitBinned(bins: Array[Array[Byte]], y: Array[Double], edges: Array[Array[Double]],
                params: CartParams, weights: Option[Array[Double]], seed: Long): CartModel = {
    val w = weights.getOrElse(Array.fill(y.length)(1.0))
    val binCounts = Binning.binCounts(edges)
    val nodes = ArrayBuffer.empty[Node]
    val rng = new Random(seed)

    def leafProb(idx: Array[Int]): Double = {
      var sw = 0.0; var swy = 0.0
      idx.foreach { i => sw += w(i); swy += w(i) * y(i) }
      if (sw <= 0) 0.5 else swy / sw
    }

    def gini(sw: Double, swy: Double): Double = {
      if (sw <= 0) 0.0
      else { val p = swy / sw; 2.0 * p * (1.0 - p) }
    }

    /** Returns the node id it created. */
    def build(idx: Array[Int], depth: Int): Int = {
      val id = nodes.length
      nodes += Node.pending // placeholder; overwritten below
      val prob = leafProb(idx)
      val makeLeaf = () => { nodes(id) = Node.leaf(prob, idx.length.toDouble); id }
      if (depth >= params.maxDepth || idx.length < 2 * params.minSamplesLeaf ||
          prob <= 0.0 || prob >= 1.0) return makeLeaf()

      val candidates: Array[Int] = params.featureSubset match {
        case Some(k) => rng.shuffle(binCounts.indices.toList).take(math.max(1, k)).toArray
        case None    => binCounts.indices.toArray
      }

      var swTot = 0.0; var swyTot = 0.0
      idx.foreach { i => swTot += w(i); swyTot += w(i) * y(i) }
      val parentImp = gini(swTot, swyTot) * swTot

      var bestFeat = -1; var bestBin = -1; var bestDec = params.minImpurityDecrease
      for (f <- candidates if binCounts(f) > 1) {
        val histW = new Array[Double](binCounts(f))
        val histWy = new Array[Double](binCounts(f))
        val histN = new Array[Int](binCounts(f))
        idx.foreach { i =>
          val b = bins(i)(f) & 0xff
          histW(b) += w(i); histWy(b) += w(i) * y(i); histN(b) += 1
        }
        val thresholds: Range =
          if (params.randomThresholds) {
            val b = rng.nextInt(binCounts(f) - 1); b to b
          } else 0 until (binCounts(f) - 1)
        var swL = 0.0; var swyL = 0.0; var nL = 0
        var b = 0
        var ti = 0
        // walk cumulative sums; evaluate only at requested thresholds
        while (b < binCounts(f) - 1) {
          swL += histW(b); swyL += histWy(b); nL += histN(b)
          if (b >= thresholds.start && b <= thresholds.end) {
            val nR = idx.length - nL
            if (nL >= params.minSamplesLeaf && nR >= params.minSamplesLeaf) {
              val dec = parentImp - gini(swL, swyL) * swL -
                        gini(swTot - swL, swyTot - swyL) * (swTot - swL)
              if (dec > bestDec) { bestDec = dec; bestFeat = f; bestBin = b }
            }
          }
          b += 1; ti += 1
        }
      }
      if (bestFeat < 0) return makeLeaf()
      val (lIdx, rIdx) = idx.partition(i => (bins(i)(bestFeat) & 0xff) <= bestBin)
      val li = build(lIdx, depth + 1)
      val ri = build(rIdx, depth + 1)
      nodes(id) = Node(bestFeat, bestBin, li, ri, 0.0, bestDec, swTot)
      id
    }

    build(y.indices.toArray, 0)
    CartModel(nodes.toArray, edges)
  }
}
