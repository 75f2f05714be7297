package repro.core

import repro.{SparkSpec, TestData}
import repro.ml.{Gbdt, GbdtParams, Linear, Metrics}

class SafeSpec extends SparkSpec {

  private val fastCfg = SafeConfig(gbdt = GbdtParams(numTrees = 10, maxDepth = 3))

  private lazy val train = TestData.planted(800, 6, seed = 51)
  private lazy val test = TestData.planted(400, 6, seed = 52)

  test("fitLocal returns a non-empty plan within the 2M cap") {
    val res = Safe.fitLocal(train, fastCfg)
    assert(res.plan.keep.nonEmpty)
    assert(res.plan.width <= 2 * train.cols)
    assert(res.reports.length == 1)
  }

  test("pipeline report stage counts are monotone non-increasing") {
    val res = Safe.fitLocal(train, fastCfg)
    val r = res.reports.head
    assert(r.candidates >= r.afterIv)
    assert(r.afterIv >= r.afterCorr)
    assert(r.afterCorr >= r.selected)
    assert(r.generated <= r.combosMined * fastCfg.binaryOps.length)
  }

  test("SAFE mines the planted interaction (a mul/div of x0,x1 is generated)") {
    val res = Safe.fitLocal(train, fastCfg)
    val genNames = res.plan.generated.map(_.name)
    assert(genNames.exists(n => n.contains("x0") && n.contains("x1")), genNames.take(10))
  }

  test("SAFE features improve a linear model on interaction data") {
    // LR can't represent x0*x1; SAFE's generated product makes it learnable.
    val res = Safe.fitLocal(train, fastCfg)
    val origAuc = Metrics.auc(test.y, Linear.fitLogistic(train).predictProba(test))
    val trNew = res.plan.applyLocal(train)
    val teNew = res.plan.applyLocal(test)
    val safeAuc = Metrics.auc(teNew.y, Linear.fitLogistic(trNew).predictProba(teNew))
    assert(safeAuc > origAuc + 0.05, s"orig=$origAuc safe=$safeAuc")
  }

  test("selected features carry IV above threshold or fallback applies") {
    val res = Safe.fitLocal(train, fastCfg)
    val trNew = res.plan.applyLocal(train)
    val ivs = TestData.engine(trNew).ivAll(trNew.names.toSeq, InfoValue.DefaultBins)
    // at least the top selected feature must be a medium+ predictor
    assert(ivs.values.max > 0.1)
  }

  test("no pair of selected features exceeds the Pearson threshold") {
    val res = Safe.fitLocal(train, fastCfg)
    val trNew = res.plan.applyLocal(train)
    val names = trNew.names.toSeq
    val corr = TestData.engine(trNew).corrMatrix(names)
    for (i <- names.indices; j <- (i + 1) until names.length)
      assert(math.abs(corr(i)(j)) <= Correlation.DefaultTheta + 1e-9,
        s"${names(i)} vs ${names(j)}: ${corr(i)(j)}")
  }

  test("deterministic given the same seed") {
    val a = Safe.fitLocal(train, fastCfg.copy(seed = 5))
    val b = Safe.fitLocal(train, fastCfg.copy(seed = 5))
    assert(a.plan.keep == b.plan.keep)
  }

  test("multi-iteration run produces reports per iteration and a valid plan") {
    val res = Safe.fitLocal(train, fastCfg.copy(nIter = 3))
    assert(res.reports.length == 3)
    val out = res.plan.applyLocal(test)
    assert(out.cols == res.plan.width)
    out.x.foreach(r => r.foreach(v => assert(java.lang.Double.isFinite(v))))
  }

  test("multi-iteration AUC does not collapse versus single iteration") {
    val res1 = Safe.fitLocal(train, fastCfg)
    val res3 = Safe.fitLocal(train, fastCfg.copy(nIter = 3))
    def aucOf(res: SafeResult): Double = {
      val tr = res.plan.applyLocal(train); val te = res.plan.applyLocal(test)
      Metrics.auc(te.y, Gbdt.fit(tr, fastCfg.gbdt).predictProba(te))
    }
    val a1 = aucOf(res1); val a3 = aucOf(res3)
    assert(a3 > a1 - 0.05, s"iter1=$a1 iter3=$a3")
  }

  test("RAND variant generates from random pairs and respects the cap") {
    val res = Safe.fitLocal(train, fastCfg, RandomCombos)
    assert(res.plan.width <= 2 * train.cols)
    assert(res.plan.generated.nonEmpty)
  }

  test("IMP variant only pairs split features") {
    val res = Safe.fitLocal(train, fastCfg, ImportantCombos)
    val model = Gbdt.fit(train, fastCfg.gbdt)
    val split = model.splitFeatures.map(model.names(_)).toSet
    if (split.size >= 2) {
      res.plan.generated.foreach(g => g.inputs.foreach(in => assert(split.contains(in), in)))
    }
  }

  test("unary operators flow through when configured") {
    val cfg = fastCfg.copy(unaryOps = Seq(Operators.Square), binaryOps = Nil)
    val res = Safe.fitLocal(train, cfg)
    assert(res.plan.generated.forall(_.op.arity == 1))
  }

  test("randomPairs yields distinct unordered pairs") {
    val rng = new scala.util.Random(3)
    val pairs = Safe.randomPairs(Seq("a", "b", "c", "d"), 6, rng)
    assert(pairs.length == 6)
    assert(pairs.map(_.key).distinct.length == 6)
    pairs.foreach(p => assert(p.features.length == 2 && p.features(0) != p.features(1)))
  }

  test("randomPairs caps at the number of available pairs") {
    val rng = new scala.util.Random(4)
    assert(Safe.randomPairs(Seq("a", "b"), 10, rng).length == 1)
    assert(Safe.randomPairs(Seq("a"), 10, rng).isEmpty)
  }

  test("fitSpark produces an equivalent-quality plan on the same data") {
    val df = train.toDF(spark).cache()
    df.count()
    val res = Safe.fitSpark(df, "label", fastCfg)
    assert(res.plan.keep.nonEmpty)
    assert(res.plan.width <= 2 * train.cols)
    // spark-selected features also help the linear model
    val trNew = res.plan.applyLocal(train)
    val teNew = res.plan.applyLocal(test)
    val origAuc = Metrics.auc(test.y, Linear.fitLogistic(train).predictProba(test))
    val sparkAuc = Metrics.auc(teNew.y, Linear.fitLogistic(trNew).predictProba(teNew))
    assert(sparkAuc > origAuc, s"orig=$origAuc spark=$sparkAuc")
    df.unpersist()
  }

  test("fitSpark plan transform runs on a 1-row DataFrame (real-time inference)") {
    val df = train.toDF(spark)
    val res = Safe.fitSpark(df, "label", fastCfg)
    val one = test.takeRows(Array(0)).toDF(spark).drop("label")
    val out = res.plan.transform(one, labelCol = None)
    assert(out.count() == 1)
    assert(out.columns.length == res.plan.width)
  }
}
