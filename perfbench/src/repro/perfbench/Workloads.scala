package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import repro.bench.Harness
import repro.core.{FeaturePlan, IterationReport, Safe, SafeConfig, SafeResult}
import repro.data.SynthClass
import repro.data.SynthClass.Dataset
import repro.ml.{GbdtParams, LocalMatrix}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal

/** One recorded op: latency, heap allocated, and whether it was traced. */
final case class Sample(ms: Double, allocMb: Double, traced: Boolean)

/** Samples and failures of one run. An op is one call the closed loop makes;
  * it fails when it throws or when an output check rejects its result.
  */
final class Meter {
  val samples = ArrayBuffer.empty[Sample]
  val batchRowsPerS = ArrayBuffer.empty[Double]
  var attempted = 0
  var failed = 0
  val errors = ArrayBuffer.empty[String]

  def attempt(what: String)(body: => Option[String]): Unit = {
    attempted += 1
    val err = try body catch { case NonFatal(e) => Some(e.toString) }
    err.foreach { e => failed += 1; if (errors.length < 5) errors += s"$what: $e" }
  }
}

/** Measures `body`: (result, nanoseconds, bytes allocated by all threads). */
object Measure {
  def apply[T](body: => T): (T, Long, Long) = {
    val a0 = Alloc.bytes(); val t0 = System.nanoTime()
    val r = body
    val t1 = System.nanoTime(); val a1 = Alloc.bytes()
    (r, t1 - t0, a1 - a0)
  }
}

/** Output checks shared by all workloads. */
object Checks {
  def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  /** Ψ of the test split: every value finite, width within ⌈2M⌉. */
  def psi(plan: FeaturePlan, out: Array[Array[Double]], mOrig: Int): Option[String] = {
    val cap = math.ceil(2.0 * mOrig).toInt
    if (plan.width > cap) Some(s"width ${plan.width} > $cap")
    else if (out.exists(_.length != plan.width)) Some("output width differs from plan width")
    else if (out.exists(_.exists(v => !java.lang.Double.isFinite(v)))) Some("non-finite Ψ value")
    else None
  }

  /** Spark-served rows against the local evaluation of the same records. */
  def same(served: Array[Array[Double]], local: Array[Array[Double]]): Option[String] = {
    if (served.length != local.length) return Some(s"${served.length} rows served, ${local.length} expected")
    var i = 0
    while (i < served.length) {
      val (a, b) = (served(i), local(i))
      if (a.length != b.length || a.indices.exists(j => !close(a(j), b(j))))
        return Some(s"row $i: transform ${a.mkString(",")} != applyLocal ${b.mkString(",")}")
      i += 1
    }
    None
  }

  /** Collected rows as doubles; a null reads as NaN so the finite check sees it. */
  def values(rows: Array[Row]): Array[Array[Double]] =
    rows.map(r => Array.tabulate(r.length)(j => if (r.isNullAt(j)) Double.NaN else r.getDouble(j)))
}

/** One dataset of a run and what the workload keeps for it. */
final class Part(val data: Dataset) {
  /** Cached frames of the train split and of the test features (Spark workloads). */
  var train: Option[DataFrame] = None
  var test: Option[DataFrame] = None
  /** The first plan fitted on this dataset: the reference, and the plan served. */
  var plan: Option[FeaturePlan] = None
  /** Plans of the recorded fits. */
  val plans = ArrayBuffer.empty[FeaturePlan]

  def release(): Unit = (train ++ test).foreach(_.unpersist(blocking = true))
}

/** One benchmark workload. Its data is a lookalike realised once with a
  * fixed seed (`PoolSeed`), `PoolFactor` times the rows a dataset needs, so
  * every run sees the same feature structure; `--seed` draws the rows of
  * `nSets` datasets from that pool. Op `i` works on dataset
  * `i mod nSets`. A set-up is `prepare()` plus `warmOps` unrecorded ops; the
  * closed loop then calls `op` until time is up.
  */
abstract class Workload(val spark: SparkSession, val seed: Long, val trace: Option[Trace]) {
  val PoolSeed = 0L
  val PoolFactor = 3
  val meter = new Meter
  def spec: SynthClass.DatasetSpec
  def nSets: Int
  def warmOps: Int
  def op(i: Int, traced: Boolean, record: Boolean): Unit
  /** Work after the loop: Ψ quality and end-of-run checks. */
  def finish(): Unit
  /** Ops whose spans give the per-fit layer metrics. */
  def fitOps: Int => Boolean = _ >= 0
  /** Set-up of one dataset. */
  protected def setUp(p: Part): Unit

  val cfg: SafeConfig = SafeConfig(seed = seed)
  /** Stage counts of each fit, keyed by op. */
  val reports = ArrayBuffer.empty[(Int, IterationReport)]
  var parts: IndexedSeq[Part] = Vector.empty
  var aucLr: Double = Double.NaN
  var aucXgb: Double = Double.NaN

  def mOrig: Int = spec.dim
  def part(i: Int): Part = parts(math.floorMod(i, nSets))

  /** A set-up: the workload's row pool, `nSets` datasets drawn from it, and
    * the per-dataset set-up.
    */
  def prepare(): Unit = {
    parts.foreach(_.release())
    val pool = SynthClass.generate(
      spec.copy(nTrain = PoolFactor * (spec.nTrain + spec.nTest), nValid = 0, nTest = 0), PoolSeed).train
    parts = (0 until nSets).map { j =>
      val (train, test) = draw(pool.rows, new Random(seed * 1000 + j))
      new Part(Dataset(spec, pool.takeRows(train), pool.takeRows(Array.empty[Int]), pool.takeRows(test)))
    }
    parts.foreach(setUp)
  }

  /** Whether every run fits on the same train rows (the pool's first). */
  def fixedTrain: Boolean = false

  /** Train and test row indices of one dataset: test rows always drawn at
    * random, train rows too unless `fixedTrain`.
    */
  private def draw(poolRows: Int, rng: Random): (Array[Int], Array[Int]) =
    if (fixedTrain)
      (Array.range(0, spec.nTrain), rng.shuffle((spec.nTrain until poolRows).toVector).take(spec.nTest).toArray)
    else {
      val idx = rng.shuffle((0 until poolRows).toVector).toArray
      (idx.take(spec.nTrain), idx.slice(spec.nTrain, spec.nTrain + spec.nTest))
    }

  /** Distinct plans among one dataset's recorded fits, at most over datasets. */
  def distinctPlans: Int = parts.map(_.plans.distinct.length).max

  def span[T](traced: Boolean, name: String)(body: => T): T =
    trace.filter(_ => traced).fold(body)(_.span(name)(body))

  /** Mean test AUC of each dataset's plan, Harness LR and XGB. */
  protected def evaluate(): Unit = meter.attempt("auc") {
    val aucs = parts.map { p =>
      Harness.evaluate(p.plan.get, p.data.train, p.data.test, Seq("LR", "XGB"), seed)
    }
    aucLr = aucs.map(_("LR")).sum / aucs.length
    aucXgb = aucs.map(_("XGB")).sum / aucs.length
    if (aucLr.isNaN || aucXgb.isNaN) Some("AUC is NaN") else None
  }

  protected def featureSchema(m: LocalMatrix): StructType =
    StructType(m.names.map(StructField(_, DoubleType, nullable = false)))

  protected def features(m: LocalMatrix, idx: Seq[Int]): DataFrame =
    spark.createDataFrame(idx.map(i => Row.fromSeq(m.x(i).toIndexedSeq)).asJava, featureSchema(m))

  protected def cacheTest(p: Part): Unit = {
    val df = features(p.data.test, 0 until p.data.test.rows).cache()
    df.count()
    p.test = Some(df)
  }

  /** Real-time inference of test record `i`: a 1-row frame through Ψ. */
  protected def serveRow(p: Part, plan: FeaturePlan, i: Int, traced: Boolean): Array[Double] = {
    val out = span(traced, "core.FeaturePlan.transform")(plan.transform(features(p.data.test, Seq(i)), None))
    Checks.values(span(traced, "core.FeaturePlan.collect")(out.collect())).head
  }
}

/** Repeated SAFE fits; each op is one fit plus Ψ of the test split as a
  * batch, `batchReps` times over so a batch sample is not a few milliseconds.
  */
abstract class FitWorkload(spark: SparkSession, seed: Long, trace: Option[Trace])
    extends Workload(spark, seed, trace) {

  def fit(p: Part, traced: Boolean): SafeResult
  /** Batches per op; one batch sample times them together. */
  def batchReps: Int
  /** Ψ of the test split through this workload's engine, as one batch. */
  def batch(p: Part, plan: FeaturePlan, traced: Boolean): Array[Array[Double]]
  /** Workload-specific check of one fit's plan and its batch output. */
  def check(p: Part, plan: FeaturePlan, out: Array[Array[Double]], traced: Boolean): Option[String]

  def op(i: Int, traced: Boolean, record: Boolean): Unit = meter.attempt("fit") {
    val p = part(i)
    val (res, ns, alloc) = Measure(fit(p, traced))
    val plan = res.plan
    if (p.plan.isEmpty) p.plan = Some(plan)
    val (out, bns, _) = Measure((1 to batchReps).map(_ => batch(p, plan, traced)).last)
    if (record) {
      meter.samples += Sample(ns / 1e6, alloc / 1048576.0, traced)
      meter.batchRowsPerS += batchReps * p.data.test.rows / (bns / 1e9)
      p.plans += plan
      res.reports.headOption.foreach(r => reports += i -> r)
    }
    Checks.psi(plan, out, mOrig).orElse(check(p, plan, out, traced))
  }

  /** Each dataset's plan served by Spark, as 1-row frames and as one batch,
    * against `applyLocal`.
    */
  def finish(): Unit = {
    parts.foreach { p =>
      val plan = p.plan.get
      val local = plan.applyLocal(p.data.test).x
      (0 until 2).foreach { i =>
        meter.attempt("1-row transform") {
          Checks.same(Array(serveRow(p, plan, i, traced = true)), Array(local(i)))
        }
      }
      meter.attempt("batch transform") {
        if (p.test.isEmpty) cacheTest(p)
        Checks.same(span(traced = true, "core.FeaturePlan.batch") {
          Checks.values(plan.transform(p.test.get, None).collect())
        }, local)
      }
    }
    evaluate()
  }
}

/** `Safe.fitLocal` (paper defaults) on nomao lookalikes, 40 features. */
final class FitLocalWide(spark: SparkSession, seed: Long, trace: Option[Trace])
    extends FitWorkload(spark, seed, trace) {
  val spec: SynthClass.DatasetSpec = SynthClass.specByName("nomao").copy(nValid = 0, nTest = 6000)
  val nSets = 3
  val warmOps = 2
  val batchReps = 5
  protected def setUp(p: Part): Unit = ()

  def fit(p: Part, traced: Boolean): SafeResult = trace.filter(_ => traced) match {
    case None    => Safe.fitLocal(p.data.train, cfg)
    case Some(t) => TracedEngine.fitLocal(p.data.train, cfg, t)
  }

  def batch(p: Part, plan: FeaturePlan, traced: Boolean): Array[Array[Double]] =
    span(traced, "core.FeaturePlan.applyLocal")(plan.applyLocal(p.data.test)).x

  /** Repeated fits with one seed must give the identical plan. */
  def check(p: Part, plan: FeaturePlan, out: Array[Array[Double]], traced: Boolean): Option[String] =
    if (p.plan.contains(plan)) None else Some("fitLocal plan differs from the first fit's")
}

/** `Safe.fitSpark` on a cached Data2 business lookalike (fraud-like labels),
  * cut to 12 features and 5 trees so a warm fit takes seconds, not tens of
  * seconds. Every run fits the same train rows: a run has room for only a
  * few fits, too few to average over train draws.
  */
final class FitSparkBiz(spark: SparkSession, seed: Long, trace: Option[Trace])
    extends FitWorkload(spark, seed, trace) {
  val spec: SynthClass.DatasetSpec =
    SynthClass.specByName("Data2").copy(nTrain = 2000, nValid = 0, nTest = 4000, dim = 12)
  override val cfg: SafeConfig = SafeConfig(seed = seed, gbdt = GbdtParams(numTrees = 5))
  val nSets = 1
  val warmOps = 3
  val batchReps = 3
  override def fixedTrain: Boolean = true

  protected def setUp(p: Part): Unit = {
    val train = p.data.train.toDF(spark).cache()
    train.count()
    p.train = Some(train)
    cacheTest(p)
  }

  def fit(p: Part, traced: Boolean): SafeResult = trace.filter(_ => traced) match {
    case None    => Safe.fitSpark(p.train.get, "label", cfg)
    case Some(t) => TracedEngine.fitSpark(p.train.get, "label", cfg, t)
  }

  def batch(p: Part, plan: FeaturePlan, traced: Boolean): Array[Array[Double]] =
    span(traced, "core.FeaturePlan.batch")(Checks.values(plan.transform(p.test.get, None).collect()))

  /** The batch Spark served must match `applyLocal` on the same records. */
  def check(p: Part, plan: FeaturePlan, out: Array[Array[Double]], traced: Boolean): Option[String] =
    Checks.same(out, span(traced, "core.FeaturePlan.applyLocal")(plan.applyLocal(p.data.test)).x)
}

/** Real-time Ψ: set-up fits Ψ once on the Data2 lookalike; the loop scores
  * test records one at a time (1-row `transform` + `collect`) and, every
  * `BatchEvery` ops, the whole test split as one batch. The plan is the
  * system under test here, so it is fitted on the same train rows in every
  * run; `--seed` draws the records that arrive.
  */
final class PsiServe(spark: SparkSession, seed: Long, trace: Option[Trace])
    extends Workload(spark, seed, trace) {
  val spec: SynthClass.DatasetSpec =
    SynthClass.specByName("Data2").copy(nTrain = 4000, nValid = 0, nTest = 1500)
  val nSets = 1
  val warmOps = 4
  val BatchEvery = 5
  /** `applyLocal` of the served plan on the test split: what Spark must serve. */
  private var expected: Array[Array[Double]] = _

  /** The loop fits nothing; per-fit layer metrics come from the set-up fits. */
  override def fitOps: Int => Boolean = _ < 0
  override def fixedTrain: Boolean = true

  protected def setUp(p: Part): Unit = {
    cacheTest(p)
    val res = trace.fold(Safe.fitLocal(p.data.train, cfg))(TracedEngine.fitLocal(p.data.train, cfg, _))
    p.plan = Some(res.plan)
    p.plans += res.plan
    res.reports.headOption.foreach(r => reports += trace.fold(0)(_.op) -> r)
    expected = span(traced = true, "core.FeaturePlan.applyLocal")(res.plan.applyLocal(p.data.test)).x
    meter.attempt("Ψ(test)")(Checks.psi(res.plan, expected, mOrig))
  }

  def op(i: Int, traced: Boolean, record: Boolean): Unit = {
    val p = part(i)
    val plan = p.plan.get
    val r = math.floorMod(i, p.data.test.rows)
    meter.attempt("1-row") {
      val (row, ns, alloc) = Measure(serveRow(p, plan, r, traced))
      if (record) meter.samples += Sample(ns / 1e6, alloc / 1048576.0, traced)
      Checks.same(Array(row), Array(expected(r)))
    }
    if (math.floorMod(i, BatchEvery) == BatchEvery - 1) meter.attempt("batch") {
      val (out, ns, _) = Measure(span(traced, "core.FeaturePlan.batch") {
        Checks.values(plan.transform(p.test.get, None).collect())
      })
      if (record) meter.batchRowsPerS += p.data.test.rows / (ns / 1e9)
      Checks.psi(plan, out, mOrig).orElse(Checks.same(out, expected))
    }
  }

  def finish(): Unit = evaluate()
}
