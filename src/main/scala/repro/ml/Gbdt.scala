package repro.ml

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer

/** Flat tree-node encoding shared by the GBDT trainer and CART.
  *
  * `feature >= 0` → internal split: rows with `bin(feature) <= binThr` go to
  * `left`, the rest to `right`. `feature == Leaf` → finalized leaf with
  * `weight` (already scaled by the learning rate). `feature == Pending` →
  * frontier node still being grown this level.
  */
final case class Node(
    feature: Int,
    binThr: Int,
    left: Int,
    right: Int,
    weight: Double,
    gain: Double,
    cover: Double) extends Serializable

object Node {
  val Leaf: Int = -1
  val Pending: Int = -2

  def pending: Node = Node(Pending, -1, -1, -1, 0.0, 0.0, 0.0)
  def leaf(weight: Double, cover: Double): Node = Node(Leaf, -1, -1, -1, weight, 0.0, cover)
}

/** Pure traversal helpers (executed on Spark executors — keep allocation-free). */
object TreeOps {

  /** Leaf weight of a finalized tree for a binned row. */
  def predict(nodes: Array[Node], bins: Array[Byte]): Double = {
    var i = 0
    while (nodes(i).feature >= 0) {
      val nd = nodes(i)
      i = if ((bins(nd.feature) & 0xff) <= nd.binThr) nd.left else nd.right
    }
    nodes(i).weight
  }

  /** Route a row through a partially built tree; returns the Pending node id
    * the row lands on, or -1 if it reaches a finalized leaf.
    */
  def routePending(nodes: Array[Node], bins: Array[Byte]): Int = {
    var i = 0
    while (true) {
      val nd = nodes(i)
      if (nd.feature == Node.Pending) return i
      if (nd.feature == Node.Leaf) return -1
      i = if ((bins(nd.feature) & 0xff) <= nd.binThr) nd.left else nd.right
    }
    -1 // unreachable
  }

  /** Boosting margin of a binned row under finalized `trees` (base score 0). */
  def margin(trees: Array[Array[Node]], bins: Array[Byte]): Double = {
    var s = 0.0
    var t = 0
    while (t < trees.length) { s += predict(trees(t), bins); t += 1 }
    s
  }
}

/** XGBoost-lite hyper-parameters (paper defaults, §IV-D/§VI of DESIGN.md). */
final case class GbdtParams(
    numTrees: Int = 20,
    maxDepth: Int = 3,
    eta: Double = 0.3,
    lambda: Double = 1.0,
    minChildHess: Double = 1e-3,
    maxBins: Int = 32,
    minSplitGain: Double = 1e-6) {
  require(maxBins >= 2 && maxBins <= 127, "maxBins must be in [2, 127] (bins are bytes)")
  require(numTrees >= 1 && maxDepth >= 1)
}

/** A root→leaf-parent path of one tree: the ordered distinct split features
  * and, per feature, the raw split thresholds seen along the path. This is
  * the raw material of SAFE's feature-combination mining (§IV-B1).
  */
final case class TreePath(features: Array[Int], splitValues: Map[Int, Array[Double]])

/** Trained boosted-tree model (logistic objective, base margin 0). */
final case class GbdtModel(
    trees: Array[Array[Node]],
    edges: Array[Array[Double]],
    names: Array[String],
    params: GbdtParams) {

  def numFeatures: Int = names.length

  /** Bin one raw row with the model's training-time edges. */
  def binRow(row: Array[Double]): Array[Byte] = Binning.binRow(row, edges)

  def predictMargin(row: Array[Double]): Double = TreeOps.margin(trees, binRow(row))

  def predictProba(row: Array[Double]): Double = Metrics.sigmoid(predictMargin(row))

  def predictProba(m: LocalMatrix): Array[Double] = m.x.map(predictProba)

  /** Features that split at least once (the paper's "split features"). */
  def splitFeatures: Array[Int] =
    trees.flatMap(_.collect { case n if n.feature >= 0 => n.feature }).distinct.sorted

  /** Importance = average gain across all splits using the feature (§IV-C3). */
  def avgGainImportance: Map[Int, Double] = {
    val acc = scala.collection.mutable.Map.empty[Int, (Double, Int)]
    for (t <- trees; n <- t if n.feature >= 0) {
      val (g, c) = acc.getOrElse(n.feature, (0.0, 0))
      acc(n.feature) = (g + n.gain, c + 1)
    }
    acc.map { case (f, (g, c)) => f -> g / c }.toMap
  }

  /** All root→leaf paths (distinct split features, per-path split values).
    * A leaf's path is trimmed at its parent, per the paper's definition of
    * p_j; degenerate single-node trees yield no paths.
    */
  def paths: Array[TreePath] = {
    val out = ArrayBuffer.empty[TreePath]
    for (nodes <- trees if nodes.length > 1) {
      def walk(i: Int, feats: List[Int], vals: Map[Int, List[Double]]): Unit = {
        val nd = nodes(i)
        if (nd.feature >= 0) {
          val thr = if (edges(nd.feature).nonEmpty)
            edges(nd.feature)(math.min(nd.binThr, edges(nd.feature).length - 1))
          else 0.0
          val feats2 = if (feats.contains(nd.feature)) feats else feats :+ nd.feature
          val vals2 = vals.updated(nd.feature, thr :: vals.getOrElse(nd.feature, Nil))
          walk(nd.left, feats2, vals2)
          walk(nd.right, feats2, vals2)
        } else if (feats.nonEmpty) {
          out += TreePath(feats.toArray, vals.map { case (f, v) => f -> v.distinct.sorted.toArray })
        }
      }
      walk(0, Nil, Map.empty)
    }
    out.toArray
  }
}

/** Histogram GBDT trainer. Where the binned rows live (local arrays or an
  * RDD) is the only difference between the local and distributed paths; the
  * histogram update and the split finding are written once — second-order
  * logistic-loss gain as in XGBoost [32].
  */
object Gbdt {

  /** A binned row and its label. */
  type Binned = (Array[Byte], Double)

  /** Train on a local matrix (driver-side histograms). */
  def fit(m: LocalMatrix, params: GbdtParams = GbdtParams()): GbdtModel = {
    val edges = Binning.fitLocal(m, params.maxBins)
    val bins = Binning.applyLocal(m, edges)
    train(Rows.Local(ArraySeq.unsafeWrapArray(bins.zip(m.y))), edges, m.names, params)
  }

  /** Train on a DataFrame with distributed histogram aggregation. */
  def fitDF(df: DataFrame, labelCol: String = "label",
            params: GbdtParams = GbdtParams()): GbdtModel = {
    val featNames = df.columns.filter(_ != labelCol)
    val casted = Rows.select(df, featNames, labelCol)
    val edges = Binning.fitSpark(casted, featNames, params.maxBins)
    val rdd = Rows.decoded(casted).map { case (x, y) => (Binning.binRow(x, edges), y) }
      .persist(StorageLevel.MEMORY_AND_DISK)
    try train(Rows.Distributed(rdd), edges, featNames, params)
    finally rdd.unpersist(blocking = false)
  }

  /** Core level-wise trainer over rows held anywhere. */
  def train(rows: Rows[Binned], edges: Array[Array[Double]],
            names: Array[String], params: GbdtParams): GbdtModel = {
    val binCounts = Binning.binCounts(edges)
    val offsets = binCounts.scanLeft(0)(_ + _).dropRight(1)
    val totalBins = binCounts.sum
    val trees = ArrayBuffer.empty[Array[Node]]

    var t = 0
    while (t < params.numTrees) {
      val partial = ArrayBuffer[Node](Node.pending)
      var depth = 0
      var anyPending = true
      while (anyPending) {
        val pending = partial.indices.filter(partial(_).feature == Node.Pending).toArray
        if (pending.isEmpty) { anyPending = false }
        else {
          val (g, h) = histograms(rows, trees.toArray, partial.toArray, pending, offsets, totalBins)
          val atMaxDepth = depth >= params.maxDepth
          var k = 0
          while (k < pending.length) {
            val nodeId = pending(k)
            val (gTot, hTot) = totals(g(k), h(k), offsets, binCounts, 0)
            val split = if (atMaxDepth) None
                        else bestSplit(g(k), h(k), offsets, binCounts, gTot, hTot, params)
            split match {
              case Some((feat, bin, gain)) =>
                val li = partial.length
                partial += Node.pending
                partial += Node.pending
                partial(nodeId) = Node(feat, bin, li, li + 1, 0.0, gain, hTot)
              case None =>
                partial(nodeId) = Node.leaf(-params.eta * gTot / (hTot + params.lambda), hTot)
            }
            k += 1
          }
          depth += 1
        }
      }
      trees += partial.toArray
      t += 1
    }
    GbdtModel(trees.toArray, edges, names, params)
  }

  /** Gradient/hessian histograms of every frontier node of the tree under
    * construction, under logistic loss with margins from `prevTrees`: one
    * pass of the histogram update over the rows.
    *
    * @param partial nodes of the tree being grown (contains Pending nodes)
    * @param pending ids of the Pending nodes (the frontier)
    * @param offsets per-feature offset into the flat bin axis
    * @return (g, h): per frontier node, flat arrays indexed offsets(f)+bin
    */
  private def histograms(
      rows: Rows[Binned], prevTrees: Array[Array[Node]], partial: Array[Node],
      pending: Array[Int], offsets: Array[Int], totalBins: Int): (Array[Array[Double]], Array[Array[Double]]) = {
    val pos = Array.fill(partial.length)(-1) // node id -> frontier position
    pending.indices.foreach(k => pos(pending(k)) = k)
    // layout: g of frontier node k at [k*totalBins, (k+1)*totalBins), h after all g
    val half = pending.length * totalBins
    val flat = rows.sum(2 * half) { case (acc, (rowBins, label)) =>
      val nodeId = TreeOps.routePending(partial, rowBins)
      if (nodeId >= 0) {
        val p = Metrics.sigmoid(TreeOps.margin(prevTrees, rowBins))
        val grad = p - label
        val hess = math.max(p * (1.0 - p), 1e-16)
        val base = pos(nodeId) * totalBins
        var f = 0
        while (f < offsets.length) {
          val idx = base + offsets(f) + (rowBins(f) & 0xff)
          acc(idx) += grad
          acc(half + idx) += hess
          f += 1
        }
      }
    }
    val slice = (from: Int) => java.util.Arrays.copyOfRange(flat, from, from + totalBins)
    (Array.tabulate(pending.length)(k => slice(k * totalBins)),
     Array.tabulate(pending.length)(k => slice(half + k * totalBins)))
  }

  /** Sum (G, H) of one node from any single feature's histogram row. */
  private def totals(g: Array[Double], h: Array[Double],
                     offsets: Array[Int], binCounts: Array[Int], feat: Int): (Double, Double) = {
    var gs = 0.0; var hs = 0.0
    var b = 0
    while (b < binCounts(feat)) { gs += g(offsets(feat) + b); hs += h(offsets(feat) + b); b += 1 }
    (gs, hs)
  }

  /** Best (feature, binThr, gain) for a node, or None if nothing clears the
    * gain / min-child-hessian bars. Gain is the standard second-order
    * formula ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)].
    */
  private def bestSplit(g: Array[Double], h: Array[Double],
                        offsets: Array[Int], binCounts: Array[Int],
                        gTot: Double, hTot: Double, params: GbdtParams): Option[(Int, Int, Double)] = {
    val parentScore = gTot * gTot / (hTot + params.lambda)
    var best: Option[(Int, Int, Double)] = None
    var bestGain = params.minSplitGain
    var f = 0
    while (f < binCounts.length) {
      var gl = 0.0; var hl = 0.0
      var b = 0
      while (b < binCounts(f) - 1) { // last bin can't be a left side on its own
        gl += g(offsets(f) + b); hl += h(offsets(f) + b)
        val gr = gTot - gl; val hr = hTot - hl
        if (hl >= params.minChildHess && hr >= params.minChildHess) {
          val gain = 0.5 * (gl * gl / (hl + params.lambda) +
                            gr * gr / (hr + params.lambda) - parentScore)
          if (gain > bestGain) { bestGain = gain; best = Some((f, b, gain)) }
        }
        b += 1
      }
      f += 1
    }
    best
  }
}
