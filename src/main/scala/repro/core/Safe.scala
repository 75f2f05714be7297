package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.ml.{Binning, Gbdt, GbdtModel, GbdtParams, LocalMatrix, Rows}
import repro.core.Operators.{BinaryOp, UnaryOp}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** How feature combinations are chosen in the generation stage:
  * SAFE mines GBDT paths (the paper's contribution); RAND and IMP are the
  * paper's ablations (§V-A1) sharing the full selection pipeline.
  */
sealed trait ComboSource
case object MinedCombos extends ComboSource     // SAFE
case object RandomCombos extends ComboSource    // RAND: random original pairs
case object ImportantCombos extends ComboSource // IMP: random pairs of split features

/** SAFE hyper-parameters (paper defaults; §IV, §V). */
final case class SafeConfig(
    binaryOps: Seq[BinaryOp] = Operators.basicArithmetic,
    unaryOps: Seq[UnaryOp] = Nil,
    /** combinations kept by Algorithm 2; <= 0 means M (the feature count). */
    gamma: Int = 0,
    alpha: Double = InfoValue.DefaultAlpha,
    beta: Int = InfoValue.DefaultBins,
    theta: Double = Correlation.DefaultTheta,
    /** output cap = ceil(maxOutFactor × M_original); paper uses 2M. */
    maxOutFactor: Double = 2.0,
    nIter: Int = 1,
    gbdt: GbdtParams = GbdtParams(),
    /** rows used for gain-ratio scoring (a ranking heuristic — sampled). */
    igSampleCap: Int = 100000,
    seed: Long = 0)

/** Per-iteration audit trail (feature counts at each pipeline stage). */
final case class IterationReport(
    iter: Int, combosMined: Int, generated: Int,
    candidates: Int, afterIv: Int, afterCorr: Int, selected: Int)

final case class SafeResult(plan: FeaturePlan, reports: Seq[IterationReport]) {
  def selectedNames: Seq[String] = plan.keep
}

/** The SAFE pipeline (Algorithm 1), written once over a statistics engine:
  * `LocalEngine` keeps rows on the driver (benchmark-grid fast path),
  * `SparkEngine` keeps them distributed (business-scale path). Both produce
  * the same FeaturePlan given the same data and seed.
  */
object Safe {

  /** Statistics provider for one dataset; mutated as features are added. */
  trait Engine {
    def originalNames: Seq[String]
    def existingNames: Set[String]
    def trainGbdt(names: Seq[String]): GbdtModel
    def addGenerated(gs: Seq[GenFeature]): Unit
    /** (sampled) local matrix over `names` for gain-ratio scoring. */
    def scoringMatrix(names: Seq[String]): LocalMatrix
    def ivAll(names: Seq[String], beta: Int): Map[String, Double]
    def corrMatrix(names: Seq[String]): Array[Array[Double]]
  }

  final class LocalEngine(initial: LocalMatrix, sampleCap: Int, seed: Long) extends Engine {
    private var full: LocalMatrix = initial
    def current: LocalMatrix = full
    def originalNames: Seq[String] = initial.names.toSeq
    def existingNames: Set[String] = full.names.toSet
    var gbdtParams: GbdtParams = GbdtParams()
    def trainGbdt(names: Seq[String]): GbdtModel =
      Gbdt.fit(full.selectNames(names), gbdtParams)
    def addGenerated(gs: Seq[GenFeature]): Unit = full = GenFeature.appendLocal(full, gs)
    def scoringMatrix(names: Seq[String]): LocalMatrix = {
      val sel = full.selectNames(names)
      if (sel.rows <= sampleCap) sel
      else {
        val rng = new Random(seed)
        sel.takeRows(rng.shuffle((0 until sel.rows).toList).take(sampleCap).toArray)
      }
    }
    private def cols(names: Seq[String]): Array[Int] = {
      val pos = full.names.zipWithIndex.toMap
      names.map(pos).toArray
    }
    def ivAll(names: Seq[String], beta: Int): Map[String, Double] = {
      val idx = cols(names)
      val edges = idx.map(j => Binning.quantileEdges(full.column(j), beta))
      names.zip(InfoValue.ivAll(Rows.of(full), idx, edges)).toMap
    }
    def corrMatrix(names: Seq[String]): Array[Array[Double]] =
      Correlation.matrix(Rows.of(full), cols(names))
  }

  final class SparkEngine(df: DataFrame, labelCol: String, sampleCap: Int, seed: Long) extends Engine {
    private var fullDf: DataFrame = df
    private lazy val nRows: Long = df.count()
    var gbdtParams: GbdtParams = GbdtParams()
    def currentDf: DataFrame = fullDf
    def originalNames: Seq[String] = df.columns.filter(_ != labelCol).toSeq
    def existingNames: Set[String] = fullDf.columns.filterNot(_ == labelCol).toSet
    def trainGbdt(names: Seq[String]): GbdtModel =
      Gbdt.fitDF(fullDf.select((names :+ labelCol).map(col): _*), labelCol, gbdtParams)
    def addGenerated(gs: Seq[GenFeature]): Unit = {
      // single projection (withColumn-in-a-loop is quadratic in plan size);
      // batch members never reference each other — inputs predate the batch
      if (gs.nonEmpty)
        fullDf = fullDf.select(col("*") +: gs.map(g => g.column(fullDf).as(g.name)): _*)
    }
    def scoringMatrix(names: Seq[String]): LocalMatrix = {
      val sel = fullDf.select((names :+ labelCol).map(col): _*)
      val sampled =
        if (nRows <= sampleCap) sel
        else sel.sample(withReplacement = false, sampleCap.toDouble / nRows, seed)
      LocalMatrix.fromDF(sampled, labelCol)
    }
    def ivAll(names: Seq[String], beta: Int): Map[String, Double] =
      if (names.isEmpty) Map.empty
      else {
        val casted = Rows.select(fullDf, names.toArray, labelCol)
        val edges = Binning.fitSpark(casted, names.toArray, beta)
        val rows = Rows.Distributed(Rows.decoded(casted))
        names.zip(InfoValue.ivAll(rows, names.indices.toArray, edges)).toMap
      }
    def corrMatrix(names: Seq[String]): Array[Array[Double]] =
      Correlation.matrix(Rows.Distributed(Rows.decoded(Rows.select(fullDf, names.toArray, labelCol))),
        names.indices.toArray)
  }

  /** SAFE on driver-side data (the paper's benchmark-machine setting). */
  def fitLocal(m: LocalMatrix, cfg: SafeConfig = SafeConfig(),
               variant: ComboSource = MinedCombos): SafeResult = {
    val engine = new LocalEngine(m, cfg.igSampleCap, cfg.seed)
    engine.gbdtParams = cfg.gbdt
    run(engine, cfg, variant)
  }

  /** SAFE with distributed statistics (business-scale setting). The input
    * DataFrame should be cached by the caller; it is scanned repeatedly.
    */
  def fitSpark(df: DataFrame, labelCol: String = "label",
               cfg: SafeConfig = SafeConfig(),
               variant: ComboSource = MinedCombos): SafeResult = {
    val engine = new SparkEngine(df, labelCol, cfg.igSampleCap, cfg.seed)
    engine.gbdtParams = cfg.gbdt
    run(engine, cfg, variant)
  }

  /** Algorithm 1. */
  def run(engine: Engine, cfg: SafeConfig, variant: ComboSource): SafeResult = {
    val mOrig = engine.originalNames.length
    val gamma = if (cfg.gamma > 0) cfg.gamma else mOrig
    val maxOut = math.max(1, math.ceil(cfg.maxOutFactor * mOrig).toInt)
    var active: Seq[String] = engine.originalNames
    val allGen = ArrayBuffer.empty[GenFeature]
    val reports = ArrayBuffer.empty[IterationReport]

    for (iter <- 1 to cfg.nIter) {
      val rng = new Random(cfg.seed * 7919 + iter)

      // -- feature generation: pick combinations (§IV-B)
      val combos: Seq[PathMining.Combo] = variant match {
        case MinedCombos =>
          val model = engine.trainGbdt(active)
          PathMining
            .topCombos(model, engine.scoringMatrix(active), gamma,
              includeSingles = cfg.unaryOps.nonEmpty, includePairs = cfg.binaryOps.nonEmpty)
            .map(_.combo)
        case RandomCombos =>
          randomPairs(active, gamma, rng) ++
            (if (cfg.unaryOps.nonEmpty) randomSingles(active, gamma, rng) else Nil)
        case ImportantCombos =>
          val model = engine.trainGbdt(active)
          val split = model.splitFeatures.map(model.names(_)).toSeq
          val pool = if (split.length >= 2) split else active
          randomPairs(pool, gamma, rng) ++
            (if (cfg.unaryOps.nonEmpty) randomSingles(pool, gamma, rng) else Nil)
      }

      // -- apply operators (§IV-B3)
      val existing = scala.collection.mutable.Set.empty[String] ++ engine.existingNames
      val newFeats = ArrayBuffer.empty[GenFeature]
      combos.foreach { c =>
        val ops: Seq[GenFeature] = c.features match {
          case Seq(a)    => cfg.unaryOps.map(op => GenFeature(op, Seq(a)))
          case Seq(a, b) => cfg.binaryOps.map(op => GenFeature(op, Seq(a, b)))
          case _         => Nil // higher arities need ternary+ operators (not configured)
        }
        ops.foreach(g => if (existing.add(g.name)) newFeats += g)
      }
      engine.addGenerated(newFeats.toSeq)
      allGen ++= newFeats

      // -- feature selection (§IV-C)
      val candidates = active ++ newFeats.map(_.name)
      val ivs = engine.ivAll(candidates, cfg.beta)
      val afterIv = InfoValue.filter(ivs, cfg.alpha, fallbackTop = math.min(maxOut, candidates.length))
      val afterCorr = Correlation.removeRedundant(afterIv, ivs, engine.corrMatrix(afterIv), cfg.theta)
      val selected =
        if (afterCorr.length <= maxOut) afterCorr
        else {
          val rankModel = engine.trainGbdt(afterCorr)
          val imp = rankModel.avgGainImportance.map { case (i, g) => rankModel.names(i) -> g }
          afterCorr
            .sortBy(n => (-imp.getOrElse(n, 0.0), -ivs.getOrElse(n, 0.0), n))
            .take(maxOut)
        }

      reports += IterationReport(iter, combos.length, newFeats.length,
        candidates.length, afterIv.length, afterCorr.length, selected.length)
      active = selected
    }
    SafeResult(FeaturePlan(allGen.toSeq, active), reports.toSeq)
  }

  /** γ distinct unordered random pairs (RAND / IMP ablations). */
  private[core] def randomPairs(names: Seq[String], gamma: Int, rng: Random): Seq[PathMining.Combo] = {
    if (names.length < 2) return Nil
    val maxPairs = names.length.toLong * (names.length - 1) / 2
    val want = math.min(gamma.toLong, maxPairs).toInt
    val seen = scala.collection.mutable.LinkedHashSet.empty[(String, String)]
    var guard = 0
    while (seen.size < want && guard < want * 50 + 100) {
      val i = rng.nextInt(names.length)
      var j = rng.nextInt(names.length)
      while (j == i) j = rng.nextInt(names.length)
      val p = if (names(i) < names(j)) (names(i), names(j)) else (names(j), names(i))
      seen += p
      guard += 1
    }
    seen.toSeq.map { case (a, b) => PathMining.Combo(Seq(a, b), Map.empty) }
  }

  private[core] def randomSingles(names: Seq[String], gamma: Int, rng: Random): Seq[PathMining.Combo] =
    rng.shuffle(names.toList).take(gamma).map(n => PathMining.Combo(Seq(n), Map.empty))
}
