package repro.ml

import repro.{SparkSpec, TestData}

class GbdtSpec extends SparkSpec {

  private lazy val xorTrain = TestData.xor(800, seed = 1)
  private lazy val xorTest = TestData.xor(400, seed = 2)

  test("GbdtParams rejects out-of-range bins") {
    intercept[IllegalArgumentException](GbdtParams(maxBins = 1))
    intercept[IllegalArgumentException](GbdtParams(maxBins = 200))
  }

  test("learns XOR (AUC > 0.9) where a linear model cannot") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 30, maxDepth = 3))
    val auc = Metrics.auc(xorTest.y, model.predictProba(xorTest))
    assert(auc > 0.9, s"auc=$auc")
    val lr = Linear.fitLogistic(xorTrain)
    val lrAuc = Metrics.auc(xorTest.y, lr.predictProba(xorTest))
    assert(lrAuc < 0.65, s"linear model should fail on XOR, got $lrAuc")
  }

  test("learns a linear signal") {
    val train = TestData.linear(800, 5, seed = 3)
    val test = TestData.linear(400, 5, seed = 4)
    val model = Gbdt.fit(train)
    assert(Metrics.auc(test.y, model.predictProba(test)) > 0.85)
  }

  test("stays near 0.5 AUC on pure-noise labels (held out)") {
    val train = TestData.noise(500, 5, seed = 5)
    val test = TestData.noise(500, 5, seed = 6)
    val model = Gbdt.fit(train, GbdtParams(numTrees = 10))
    val auc = Metrics.auc(test.y, model.predictProba(test))
    assert(auc > 0.35 && auc < 0.65, s"auc=$auc")
  }

  test("predictions are valid probabilities") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 5))
    model.predictProba(xorTest).foreach(p => assert(p >= 0 && p <= 1))
  }

  test("splitFeatures on XOR are the interacting pair, not the noise column") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 20, maxDepth = 3))
    val split = model.splitFeatures.toSet
    assert(split.contains(0) && split.contains(1), s"split=$split")
  }

  test("avgGainImportance ranks interacting features above noise") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 20, maxDepth = 3))
    val imp = model.avgGainImportance
    val noiseImp = imp.getOrElse(2, 0.0)
    assert(imp(0) > noiseImp && imp(1) > noiseImp, s"imp=$imp")
  }

  test("paths contain co-occurring split features from the same branch") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 10, maxDepth = 3))
    val paths = model.paths
    assert(paths.nonEmpty)
    // XOR needs x0 and x1 on one path of some tree
    assert(paths.exists(p => p.features.contains(0) && p.features.contains(1)))
    // every path's split values refer to its own features
    paths.foreach { p =>
      p.features.foreach(f => assert(p.splitValues.contains(f)))
      assert(p.features.distinct.length == p.features.length)
    }
  }

  test("paths are trimmed at the leaf parent (features bounded by depth)") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 5, maxDepth = 3))
    model.paths.foreach(p => assert(p.features.length <= 3))
  }

  test("single-node trees (no split possible) predict the prior") {
    val m = LocalMatrix(Array("a"), Array.fill(50)(Array(1.0)), Array.fill(50)(1.0).zipWithIndex.map {
      case (_, i) => if (i < 10) 1.0 else 0.0
    })
    val model = Gbdt.fit(m, GbdtParams(numTrees = 3))
    // constant feature → no splits → all trees single leaves
    assert(model.paths.isEmpty)
    val p = model.predictProba(Array(1.0))
    assert(p > 0.0 && p < 0.5) // prior is 20% positive
  }

  test("more trees fit the training data better") {
    val train = TestData.planted(600, 4, seed = 7)
    val small = Gbdt.fit(train, GbdtParams(numTrees = 2))
    val large = Gbdt.fit(train, GbdtParams(numTrees = 40))
    val aucSmall = Metrics.auc(train.y, small.predictProba(train))
    val aucLarge = Metrics.auc(train.y, large.predictProba(train))
    assert(aucLarge > aucSmall, s"small=$aucSmall large=$aucLarge")
  }

  test("binRow respects training edges") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 2, maxBins = 8))
    val bins = model.binRow(Array(-100.0, 0.0, 100.0))
    assert((bins(0) & 0xff) == 0)
    assert((bins(2) & 0xff) == model.edges(2).length) // top bin
  }

  test("Spark rows produce node-identical trees to local rows on shared bins") {
    val train = TestData.planted(400, 4, seed = 8)
    val params = GbdtParams(numTrees = 5, maxDepth = 3, maxBins = 16)
    val edges = Binning.fitLocal(train, params.maxBins)
    val bins = Binning.applyLocal(train, edges)
    val rows = bins.zip(train.y).toIndexedSeq
    val local = Gbdt.train(Rows.Local(rows), edges, train.names, params)
    val dist = Gbdt.train(Rows.Distributed(spark.sparkContext.parallelize(rows, 4)), edges, train.names, params)
    assert(local.trees.length == dist.trees.length)
    local.trees.zip(dist.trees).foreach { case (a, b) =>
      assert(a.length == b.length)
      a.zip(b).foreach { case (na, nb) =>
        assert(na.feature == nb.feature && na.binThr == nb.binThr)
        assert(math.abs(na.weight - nb.weight) < 1e-9)
        assert(math.abs(na.gain - nb.gain) < 1e-7)
      }
    }
  }

  test("fitDF (distributed end-to-end) matches local fit quality") {
    val train = TestData.xor(600, seed = 9)
    val test = TestData.xor(300, seed = 10)
    val params = GbdtParams(numTrees = 15, maxBins = 16)
    val local = Gbdt.fit(train, params)
    val dist = Gbdt.fitDF(train.toDF(spark), "label", params)
    val aucLocal = Metrics.auc(test.y, local.predictProba(test))
    val aucDist = Metrics.auc(test.y, dist.predictProba(test))
    assert(aucDist > 0.85, s"distributed auc=$aucDist")
    assert(math.abs(aucLocal - aucDist) < 0.1, s"local=$aucLocal dist=$aucDist")
  }
}
