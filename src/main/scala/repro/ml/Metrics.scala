package repro.ml

/** Evaluation metrics and small information-theory helpers shared by the
  * classifiers, the SAFE selection pipeline and the comparator algorithms.
  */
object Metrics {

  /** Area under the ROC curve of `scores` against binary `labels` (0/1).
    *
    * Rank-based (Mann–Whitney) formulation with midrank tie handling, so it
    * matches sklearn.metrics.roc_auc_score. Returns 0.5 when one class is
    * absent (undefined AUC — neutral value keeps averages meaningful).
    */
  def auc(labels: Array[Double], scores: Array[Double]): Double = {
    require(labels.length == scores.length, "labels/scores length mismatch")
    val n = labels.length
    val nPos = labels.count(_ > 0.5)
    val nNeg = n - nPos
    if (nPos == 0 || nNeg == 0) return 0.5
    val idx = (0 until n).sortBy(scores)
    // midranks over tied score groups
    val ranks = new Array[Double](n)
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n && scores(idx(j + 1)) == scores(idx(i))) j += 1
      val mid = (i + j + 2) / 2.0 // ranks are 1-based
      var k = i
      while (k <= j) { ranks(idx(k)) = mid; k += 1 }
      i = j + 1
    }
    var sumPos = 0.0
    i = 0
    while (i < n) { if (labels(i) > 0.5) sumPos += ranks(i); i += 1 }
    (sumPos - nPos * (nPos + 1) / 2.0) / (nPos.toDouble * nNeg)
  }

  /** Classification accuracy at threshold 0.5. */
  def accuracy(labels: Array[Double], scores: Array[Double]): Double = {
    require(labels.nonEmpty)
    labels.indices.count(i => (scores(i) > 0.5) == (labels(i) > 0.5)).toDouble / labels.length
  }

  /** Shannon entropy (nats) of a histogram of non-negative counts. */
  def entropy(counts: Array[Double]): Double = {
    val total = counts.sum
    if (total <= 0) return 0.0
    var h = 0.0
    var i = 0
    while (i < counts.length) {
      val p = counts(i) / total
      if (p > 0) h -= p * math.log(p)
      i += 1
    }
    h
  }

  /** Binary-label entropy from (#pos, #neg). */
  def binaryEntropy(nPos: Double, nNeg: Double): Double = entropy(Array(nPos, nNeg))

  /** Information gain of a partition from per-cell (#pos, #neg) counts:
    * H(y) − Σ (w/n)·H(cell), with w the cell size and n the total.
    */
  def entropyGain(pos: Array[Double], neg: Array[Double]): Double = {
    val p = pos.sum; val q = neg.sum
    val n = p + q
    var hCond = 0.0
    var c = 0
    while (c < pos.length) {
      val w = pos(c) + neg(c)
      if (w > 0) hCond += (w / n) * binaryEntropy(pos(c), neg(c))
      c += 1
    }
    binaryEntropy(p, q) - hCond
  }

  /** Kullback–Leibler divergence KLD(P || Q) in nats; P(i)=0 terms vanish. */
  def kld(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length, "distribution length mismatch")
    var d = 0.0
    var i = 0
    while (i < p.length) {
      if (p(i) > 0) {
        require(q(i) > 0, s"KLD undefined: q($i)=0 where p($i)>0")
        d += p(i) * math.log(p(i) / q(i))
      }
      i += 1
    }
    d
  }

  /** Jensen–Shannon divergence (Eq. 14 in the paper): symmetric, finite. */
  def jsd(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length, "distribution length mismatch")
    val r = Array.tabulate(p.length)(i => (p(i) + q(i)) / 2.0)
    0.5 * (kldSafe(p, r) + kldSafe(q, r))
  }

  // KLD variant for JSD: r(i)=0 implies p(i)=0, so the 0-guard is sound.
  private def kldSafe(p: Array[Double], r: Array[Double]): Double = {
    var d = 0.0
    var i = 0
    while (i < p.length) {
      if (p(i) > 0) d += p(i) * math.log(p(i) / r(i))
      i += 1
    }
    d
  }

  /** Sigmoid with the usual overflow guard. */
  def sigmoid(z: Double): Double =
    if (z >= 0) 1.0 / (1.0 + math.exp(-z)) else { val e = math.exp(z); e / (1.0 + e) }
}
