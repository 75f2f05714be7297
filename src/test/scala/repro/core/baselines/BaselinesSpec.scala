package repro.core.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{FeaturePlan, InfoValue}
import repro.ml.{Gbdt, GbdtParams, Linear, Metrics}

class TfcSpec extends AnyFunSuite {

  private lazy val train = TestData.planted(600, 5, seed = 61)

  test("infoGain of an informative column beats noise") {
    val y = train.y
    val informative = train.y.zipWithIndex.map { case (v, i) => v * 2 + train.x(i)(4) * 0.1 }
    val noise = train.column(4)
    assert(Tfc.infoGain(informative, y, 10) > Tfc.infoGain(noise, y, 10) + 0.1)
  }

  test("infoGain of a constant column is 0") {
    assert(Tfc.infoGain(Array.fill(100)(1.0), Array.tabulate(100)(i => (i % 2).toDouble), 10) == 0.0)
  }

  test("fit produces at most 2M features") {
    val plan = Tfc.fit(train)
    assert(plan.width <= 2 * train.cols)
    assert(plan.width > 0)
  }

  test("the pool is selected purely by information gain (originals can be displaced)") {
    val plan = Tfc.fit(train)
    // the planted product x0*x1 has the highest gain — some arithmetic on
    // (x0, x1) must be in the pool
    assert(plan.generated.exists(g => g.inputs.toSet == Set("x0", "x1")),
      plan.keep.mkString(","))
  }

  test("fit is deterministic (no randomness)") {
    val a = Tfc.fit(train)
    val b = Tfc.fit(train)
    assert(a.keep == b.keep)
  }

  test("generated pool features evaluate finitely") {
    val plan = Tfc.fit(train)
    val out = plan.applyLocal(train)
    out.x.foreach(_.foreach(v => assert(java.lang.Double.isFinite(v))))
  }
}

class FcTreeSpec extends AnyFunSuite {

  private lazy val train = TestData.planted(600, 5, seed = 62)

  test("bestSplit finds the best threshold gain") {
    val y = Array.fill(50)(1.0) ++ Array.fill(50)(0.0)
    val v = Array.tabulate(100)(i => if (i < 50) 1.0 else 0.0)
    val (_, g) = FcTree.bestSplit(v, y, y.indices.toArray, 10)
    assert(math.abs(g - math.log(2)) < 1e-9) // perfect split: IG = H(y) = ln 2
  }

  test("bestSplit gain of noise is near zero") {
    val rng = new scala.util.Random(1)
    val y = Array.fill(500)(if (rng.nextBoolean()) 1.0 else 0.0)
    val v = Array.fill(500)(rng.nextGaussian())
    assert(FcTree.bestSplit(v, y, y.indices.toArray, 10)._2 < 0.02)
  }

  test("fit emits originals plus constructed features within the cap") {
    val plan = FcTree.fit(train)
    assert(plan.width <= 2 * train.cols)
    assert(train.names.forall(plan.keep.contains))
  }

  test("constructed features come from internal-node wins") {
    val plan = FcTree.fit(train, FcTree.FcTreeConfig(nCand = 40, seed = 3))
    // with planted x0*x1 structure, constructed features should appear
    assert(plan.generated.nonEmpty)
    plan.generated.foreach(g => assert(g.op.arity == 2))
  }

  test("deterministic given a seed, varies across seeds") {
    val a = FcTree.fit(train, FcTree.FcTreeConfig(seed = 1))
    val b = FcTree.fit(train, FcTree.FcTreeConfig(seed = 1))
    val c = FcTree.fit(train, FcTree.FcTreeConfig(seed = 2))
    assert(a.keep == b.keep)
    // different candidate draws should usually change the constructed set
    assert(a.keep != c.keep || a.generated.map(_.name) != c.generated.map(_.name))
  }

  test("plan applies cleanly to fresh data") {
    val plan = FcTree.fit(train)
    val test = TestData.planted(200, 5, seed = 63)
    val out = plan.applyLocal(test)
    assert(out.cols == plan.width)
    out.x.foreach(_.foreach(v => assert(java.lang.Double.isFinite(v))))
  }
}

class RandImpSpec extends AnyFunSuite {

  private lazy val train = TestData.planted(700, 8, seed = 64)
  private lazy val test = TestData.planted(350, 8, seed = 65)
  private val cfg = repro.core.SafeConfig(gbdt = GbdtParams(numTrees = 10))

  test("RAND and IMP both produce plans within the cap") {
    assert(RandImp.fitRandLocal(train, cfg).plan.width <= 16)
    assert(RandImp.fitImpLocal(train, cfg).plan.width <= 16)
  }

  test("assumption check (paper §IV-B1): SAFE >= IMP >= RAND on average AUC") {
    // averaged over seeds to damp variance; XGB downstream
    val seeds = Seq(0L, 1L, 2L)
    def meanAuc(fit: Long => FeaturePlan): Double = seeds.map { s =>
      val plan = fit(s)
      val tr = plan.applyLocal(train); val te = plan.applyLocal(test)
      Metrics.auc(te.y, Linear.fitLogistic(tr).predictProba(te))
    }.sum / seeds.size
    val rand = meanAuc(s => RandImp.fitRandLocal(train, cfg.copy(seed = s)).plan)
    val imp = meanAuc(s => RandImp.fitImpLocal(train, cfg.copy(seed = s)).plan)
    val safe = meanAuc(s => repro.core.Safe.fitLocal(train, cfg.copy(seed = s)).plan)
    // SAFE should not lose to the random ablations (small slack for noise)
    assert(safe >= rand - 0.02, s"safe=$safe rand=$rand")
    assert(safe >= imp - 0.02, s"safe=$safe imp=$imp")
  }

  test("RAND selection still enforces the IV threshold") {
    val res = RandImp.fitRandLocal(train, cfg)
    val out = res.plan.applyLocal(train)
    val ivs = TestData.engine(out).ivAll(out.names.toSeq, InfoValue.DefaultBins)
    assert(ivs.values.max > 0.0)
  }

  test("IMP falls back gracefully when few split features exist") {
    val tiny = TestData.noise(60, 2, seed = 66)
    val res = RandImp.fitImpLocal(tiny, cfg)
    assert(res.plan.keep.nonEmpty)
  }
}
