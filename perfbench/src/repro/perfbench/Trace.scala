package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.DataFrame
import repro.core.{GenFeature, MinedCombos, Safe, SafeConfig, SafeResult}
import repro.ml.{GbdtModel, LocalMatrix}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Heap bytes allocated so far by all live JVM threads. */
object Alloc {
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  def bytes(): Long = mx.getThreadAllocatedBytes(mx.getAllThreadIds).iterator.filter(_ > 0).sum
}

/** One timed call into a layer. `op` is the measured operation it belongs to;
  * `id` tags the Spark jobs it submits (see [[SparkSpans]]).
  */
final case class Span(id: String, name: String, op: Int, startMs: Long, endMs: Long,
                      wallNs: Long, allocBytes: Long)

/** In-memory span log of one benchmark run; written out when the run ends. */
final class Trace(sc: Option[SparkContext]) {
  val spans = ArrayBuffer.empty[Span]
  var op: Int = -1
  private var next = 0

  def span[T](name: String)(body: => T): T = {
    next += 1
    val id = s"$name#$next"
    val prev = sc.map(_.getLocalProperty(SparkSpans.Key))
    sc.foreach(_.setLocalProperty(SparkSpans.Key, id))
    val a0 = Alloc.bytes(); val m0 = System.currentTimeMillis(); val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime(); val m1 = System.currentTimeMillis(); val a1 = Alloc.bytes()
      sc.foreach(_.setLocalProperty(SparkSpans.Key, prev.orNull))
      spans += Span(id, name, op, m0, m1, t1 - t0, a1 - a0)
    }
  }
}

/** Timing decorator around a SAFE engine: every call Algorithm 1 makes into
  * `repro.ml` / `repro.core` becomes a span. The first `trainGbdt` of a fit
  * builds the generation model, the second the ranking model.
  */
final class TracedEngine(inner: Safe.Engine, trace: Trace) extends Safe.Engine {
  private var gbdtCalls = 0
  def originalNames: Seq[String] = inner.originalNames
  def existingNames: Set[String] = inner.existingNames
  def trainGbdt(names: Seq[String]): GbdtModel = {
    gbdtCalls += 1
    trace.span(if (gbdtCalls == 1) "ml.Gbdt.gen" else "ml.Gbdt.rank")(inner.trainGbdt(names))
  }
  def addGenerated(gs: Seq[GenFeature]): Unit =
    trace.span("core.Safe.addGenerated")(inner.addGenerated(gs))
  def scoringMatrix(names: Seq[String]): LocalMatrix =
    trace.span("core.Safe.scoringMatrix")(inner.scoringMatrix(names))
  def ivAll(names: Seq[String], beta: Int): Map[String, Double] =
    trace.span("core.InfoValue.ivAll")(inner.ivAll(names, beta))
  def corrMatrix(names: Seq[String]): Array[Array[Double]] =
    trace.span("core.Correlation.corrMatrix")(inner.corrMatrix(names))
}

/** `Safe.fitLocal` / `Safe.fitSpark` with the engine wrapped in a
  * [[TracedEngine]]; the whole `Safe.run` call is the `core.Safe.run` span.
  */
object TracedEngine {
  def fitLocal(m: LocalMatrix, cfg: SafeConfig, t: Trace): SafeResult = {
    val e = new Safe.LocalEngine(m, cfg.igSampleCap, cfg.seed)
    e.gbdtParams = cfg.gbdt
    t.span("core.Safe.run")(Safe.run(new TracedEngine(e, t), cfg, MinedCombos))
  }

  def fitSpark(df: DataFrame, labelCol: String, cfg: SafeConfig, t: Trace): SafeResult = {
    val e = new Safe.SparkEngine(df, labelCol, cfg.igSampleCap, cfg.seed)
    e.gbdtParams = cfg.gbdt
    t.span("core.Safe.run")(Safe.run(new TracedEngine(e, t), cfg, MinedCombos))
  }
}

/** Spark work attributed to spans: each job carries the id of the span that
  * submitted it as a local property; tasks inherit it through their stage.
  */
final class SparkSpans(sc: SparkContext) extends SparkListener {
  import SparkSpans._
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val jobs = new ConcurrentLinkedQueue[String]()
  private val tasks = new ConcurrentLinkedQueue[TaskRec]()
  private val drained = new CountDownLatch(1)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val id = Option(e.properties).map(_.getProperty(Key)).orNull
    if (id == Marker) drained.countDown()
    else if (id != null) { jobs.add(id); e.stageIds.foreach(stageSpan.put(_, id)) }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val id = stageSpan.get(e.stageId)
    if (id != null && e.taskMetrics != null)
      tasks.add(TaskRec(id, e.taskInfo.launchTime, e.taskInfo.finishTime,
        e.taskMetrics.executorRunTime, e.taskMetrics.executorDeserializeTime))
  }

  /** Runs a marker job and waits until the listener bus has delivered it,
    * so every event of earlier jobs has been seen.
    */
  def drain(): Unit = {
    sc.setLocalProperty(Key, Marker)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(Key, null)
    require(drained.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain")
  }

  /** Spark work of one span: jobs, tasks, summed task run and deserialize
    * seconds, and seconds of the span's wall time with no task running.
    */
  def of(s: Span): SparkWork = {
    val ts = tasks.asScala.filter(_.span == s.id).toSeq
    val busy = ts.map(t => (math.max(t.launch, s.startMs), math.min(t.finish, s.endMs)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var covered = 0L; var end = Long.MinValue
    busy.foreach { case (a, b) =>
      if (a > end) { covered += b - a; end = b }
      else if (b > end) { covered += b - end; end = b }
    }
    SparkWork(jobs.asScala.count(_ == s.id), ts.length,
      ts.map(_.runMs).sum / 1e3, ts.map(_.deserMs).sum / 1e3,
      math.max(0.0, s.wallNs / 1e9 - covered / 1e3))
  }
}

object SparkSpans {
  val Key = "perfbench.span"
  private val Marker = "perfbench.drain"
  final case class TaskRec(span: String, launch: Long, finish: Long, runMs: Long, deserMs: Long)
}

final case class SparkWork(jobs: Int, tasks: Int, taskRunS: Double, taskDeserS: Double, noTaskS: Double)
