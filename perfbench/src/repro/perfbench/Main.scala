package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** End-to-end SAFE benchmark: one workload, one seed, one closed loop.
  *
  *   Main --workload fit-local-wide|fit-spark-biz|psi-serve --seed N
  *        --seconds S --trace 0|1 --result FILE
  *
  * Prints machine facts and every metric by name and unit, then writes the
  * result object to FILE. `--trace 0` gives the end-to-end metrics, `--trace 1`
  * the per-layer ones (spans recorded by [[TracedEngine]] and [[SparkSpans]]).
  */
object Main {
  val SetupReps = 3

  final case class Metric(name: String, value: Double, unit: String)

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val name = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val traced = opt("trace") match { case "0" => false; case "1" => true; case t => sys.error(s"--trace $t") }
    val cores = math.min(2, Runtime.getRuntime.availableProcessors)

    val t0 = System.nanoTime()
    val spark = SparkSession.builder.master(s"local[$cores]").appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .getOrCreate()
    val sparkStartS = (System.nanoTime() - t0) / 1e9
    val sc = spark.sparkContext
    try {
      val trace = if (traced) Some(new Trace(Some(sc))) else None
      val listener = trace.map(_ => new SparkSpans(sc))
      listener.foreach(sc.addSparkListener)
      val w: Workload = name match {
        case "fit-local-wide" => new FitLocalWide(spark, seed, trace)
        case "fit-spark-biz"  => new FitSparkBiz(spark, seed, trace)
        case "psi-serve"      => new PsiServe(spark, seed, trace)
        case other            => sys.error(s"unknown workload $other")
      }

      // set-up, repeated: data, caches and warm-up ops (kept out of the samples)
      val setups = (1 to SetupReps).map { r =>
        val s0 = System.nanoTime()
        trace.foreach(_.op = -1000 * r)
        w.prepare()
        (1 to w.warmOps).foreach { k =>
          trace.foreach(_.op = -1000 * r + k)
          w.op(-1000 * r + k, traced && k % 2 == 1, record = false)
        }
        (System.nanoTime() - s0) / 1e9
      }

      // closed loop, one caller; with tracing, every other op is traced
      val gc0 = gcMs()
      val end = System.nanoTime() + (seconds * 1e9).toLong
      var i = 0
      while (System.nanoTime() < end) {
        trace.foreach(_.op = i)
        w.op(i, traced && i % 2 == 0, record = true)
        i += 1
      }
      val gcPerOp = (gcMs() - gc0) / math.max(1, i).toDouble
      trace.foreach(_.op = Int.MaxValue)
      w.finish()
      listener.foreach(_.drain())

      val m = w.meter
      if (m.samples.isEmpty) m.attempt("loop")(Some("no op completed"))
      val rt = Runtime.getRuntime
      println(s"perfbench workload=$name seed=$seed seconds=$seconds trace=${if (traced) 1 else 0}" +
        s" nproc=${rt.availableProcessors} java=${System.getProperty("java.version")}" +
        s" heap_max_mb=${rt.maxMemory / 1048576} master=${sc.master} spark=${spark.version}" +
        s" spark_start_s=${fmt(sparkStartS)} data=${w.spec.name} datasets=${w.nSets}" +
        s" data_seeds=${w.parts.indices.map(seed * 1000 + _).mkString(",")}" +
        s" train=${w.spec.nTrain}x${w.spec.dim} test=${w.spec.nTest}x${w.spec.dim}" +
        s" setup_reps=$SetupReps warm_ops=${w.warmOps} loop_ops=$i gc_ms_per_op=${fmt(gcPerOp)}")
      println(s"perfbench setup_s each: ${setups.map(fmt).mkString(" ")}")
      m.errors.foreach(e => println(s"perfbench FAILED $e"))

      val (metrics, printedOnly) =
        if (traced) Layers(w, trace.get, listener.get, gcPerOp)
        else (endToEnd(w, Stats.median(setups)), Nil)
      printedOnly.foreach(x => println(f"info ${x.name}%-46s ${fmt(x.value)}%s ${x.unit}"))
      metrics.foreach(x => println(f"metric ${x.name}%-44s ${fmt(x.value)}%s ${x.unit}"))
      val body = metrics.map(x => s""""${x.name}": {"value": ${json(x.value)}, "unit": "${x.unit}"}""")
      val result = s"""{"correct": ${m.failed == 0}, "attempted": ${m.attempted}, "failed": ${m.failed}, """ +
        s""""metrics": {${body.mkString(", ")}}}"""
      Files.write(Paths.get(opt("result")), (result + "\n").getBytes("UTF-8"))
    } finally spark.stop()
  }

  /** End-to-end metrics. Their names hold on every workload: "op" is one fit
    * on the fit workloads and one 1-row Ψ on psi-serve. The per-workload
    * names (fit_p50_s, psi_row_p50_ms, …) are printed alongside.
    */
  def endToEnd(w: Workload, setupS: Double): Seq[Metric] = {
    val m = w.meter
    val ms = m.samples.map(_.ms).toSeq
    val (tailMs, pct, beyond) = Stats.tail(ms)
    val p50 = Stats.median(ms)
    val alloc = Stats.median(m.samples.map(_.allocMb).toSeq)
    val tailNote = f"p$pct%.1f of ${ms.length}, $beyond beyond"
    w match {
      case _: FitWorkload =>
        println(s"alias fit_p50_s ${fmt(p50 / 1e3)} s")
        println(s"alias fit_tail_s ${fmt(tailMs / 1e3)} s ($tailNote)")
        println(s"alias fit_alloc_mb ${fmt(alloc)} MB")
      case _ =>
        println(s"alias psi_row_p50_ms ${fmt(p50)} ms")
        println(s"alias psi_row_tail_ms ${fmt(tailMs)} ms ($tailNote)")
    }
    println(s"info op_ms in order: ${ms.map(x => f"$x%.1f").mkString(" ")}")
    val b = m.batchRowsPerS.toSeq
    println(s"info batches ${b.length}, rows/s quartiles ${if (b.length > 1) Stats.quartiles(b).map(fmt).mkString(" ") else "-"}")
    println(s"alias error_rate ${fmt(m.failed.toDouble / m.attempted)} ratio (${m.failed} of ${m.attempted})")
    println(s"info spark.distinct_plans ${w.distinctPlans} count")
    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("latency_p50_ms", p50, "ms"),
      Metric("latency_tail_ms", tailMs, "ms"),
      Metric("alloc_mb_per_op", alloc, "MB"),
      Metric("psi_batch_rows_per_s", Stats.median(m.batchRowsPerS.toSeq), "rows/s"),
      Metric("test_auc_lr", w.aucLr, "AUCx100"),
      Metric("test_auc_xgb", w.aucXgb, "AUCx100"))
  }

  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum

  def fmt(d: Double): String = java.lang.Double.toString(d)

  private def json(d: Double): String = if (java.lang.Double.isFinite(d)) fmt(d) else "null"
}
