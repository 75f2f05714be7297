package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.{Gbdt, GbdtParams, Linear, Metrics}

class SynthClassSpec extends AnyFunSuite {

  test("registry covers the paper's 12 benchmark and 3 business datasets") {
    assert(SynthClass.benchmarks.map(_.name) ==
      Seq("valley", "banknote", "gina", "spambase", "phoneme", "wind",
          "ailerons", "eeg-eye", "magic", "nomao", "bank", "vehicle"))
    assert(SynthClass.business.map(_.name) == Seq("Data1", "Data2", "Data3"))
  }

  test("paper sizes are preserved in the specs (Table IV)") {
    val gina = SynthClass.specByName("gina")
    assert(gina.paperTrain == 2800 && gina.paperTest == 668 && gina.paperDim == 970)
    val bank = SynthClass.specByName("bank")
    assert(bank.paperTrain == 35211 && bank.paperDim == 51)
  }

  test("paper sizes are preserved for business data (Table VII)") {
    val d3 = SynthClass.specByName("Data3")
    assert(d3.paperTrain == 8000000 && d3.paperDim == 73)
  }

  test("unknown dataset names are rejected") {
    intercept[NoSuchElementException](SynthClass.specByName("nope"))
  }

  test("generation honours split sizes and dimension") {
    val d = SynthClass.generateByName("banknote", seed = 0)
    assert(d.train.rows == d.spec.nTrain)
    assert(d.valid.rows == d.spec.nValid)
    assert(d.test.rows == d.spec.nTest)
    assert(d.train.cols == d.spec.dim)
    assert(d.train.names.sameElements(Array.tabulate(d.spec.dim)(j => s"x$j")))
  }

  test("generation is deterministic in (name, seed)") {
    val a = SynthClass.generateByName("phoneme", seed = 7)
    val b = SynthClass.generateByName("phoneme", seed = 7)
    assert(a.train.x(0).sameElements(b.train.x(0)))
    assert(a.train.y.sameElements(b.train.y))
  }

  test("different seeds give different realizations") {
    val a = SynthClass.generateByName("phoneme", seed = 1)
    val b = SynthClass.generateByName("phoneme", seed = 2)
    assert(!a.train.x(0).sameElements(b.train.x(0)))
  }

  test("positive rate approximately matches the spec") {
    val d = SynthClass.generateByName("bank", seed = 3) // posRate 0.12
    val rate = d.train.y.sum / d.train.rows
    assert(rate > 0.05 && rate < 0.25, s"rate=$rate")
  }

  test("business data is imbalanced like fraud data") {
    val spec = SynthClass.specByName("Data1").copy(nTrain = 5000, nValid = 500, nTest = 500)
    val d = SynthClass.generate(spec, seed = 0)
    val rate = d.train.y.sum / d.train.rows
    assert(rate < 0.12, s"rate=$rate")
  }

  test("labels are learnable: GBDT beats chance on held-out data") {
    val d = SynthClass.generateByName("magic", seed = 4)
    val model = Gbdt.fit(d.train, GbdtParams(numTrees = 20))
    val auc = Metrics.auc(d.test.y, model.predictProba(d.test))
    assert(auc > 0.6, s"auc=$auc")
  }

  test("interactions matter: GBDT beats the linear model (nonlinear structure)") {
    val d = SynthClass.generateByName("valley", seed = 5)
    val gAuc = Metrics.auc(d.test.y, Gbdt.fit(d.train, GbdtParams(numTrees = 30)).predictProba(d.test))
    val lAuc = Metrics.auc(d.test.y, Linear.fitLogistic(d.train).predictProba(d.test))
    assert(gAuc > lAuc - 0.02, s"gbdt=$gAuc linear=$lAuc")
  }

  test("redundant features exist (Pearson stage has work to do)") {
    val d = SynthClass.generateByName("spambase", seed = 6)
    val names = d.train.names.toSeq
    val corr = repro.TestData.engine(d.train).corrMatrix(names)
    val hasRedundant = names.indices.exists(i => (i + 1 until names.length).exists(j => math.abs(corr(i)(j)) > 0.8))
    assert(hasRedundant)
  }

  test("all generated values are finite") {
    val d = SynthClass.generateByName("wind", seed = 7)
    d.train.x.foreach(_.foreach(v => assert(java.lang.Double.isFinite(v))))
  }
}
