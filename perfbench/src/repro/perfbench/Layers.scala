package repro.perfbench

import repro.perfbench.Main.Metric

/** Per-layer metrics of a traced run.
  *
  * Per-fit figures are medians over the traced fits of the loop (psi-serve's
  * loop fits nothing, so its set-up fits stand in); a layer's figure is the
  * sum of its spans within one fit. FeaturePlan figures are medians per call.
  * A layer a workload never enters reads 0. The Spark work of the fit stages
  * (jobs, tasks, task run and deserialize time, time with no task running)
  * is returned apart: it is printed, and is all zeros unless the fits run on
  * Spark (`fit-spark-biz`).
  */
object Layers {
  /** Engine spans; `core.Safe.run` wraps the whole `Safe.run` call. */
  val FitSpans = Seq("ml.Gbdt.gen", "ml.Gbdt.rank", "core.Safe.addGenerated",
    "core.Safe.scoringMatrix", "core.InfoValue.ivAll", "core.Correlation.corrMatrix")

  /** (metrics of the result, Spark work of the fit stages). */
  def apply(w: Workload, trace: Trace, spark: SparkSpans, gcMsPerOp: Double): (Seq[Metric], Seq[Metric]) = {
    val spans = trace.spans.toSeq
    val fitOps = spans.filter(s => s.name == "core.Safe.run" && w.fitOps(s.op)).map(_.op).distinct
    val byOp = spans.filter(s => fitOps.contains(s.op)).groupBy(_.op)
    def perFit(f: Seq[Span] => Double): Double =
      if (fitOps.isEmpty) 0.0 else Stats.median(fitOps.map(op => f(byOp(op))))
    def wallS(name: String)(ss: Seq[Span]): Double = ss.filter(_.name == name).map(_.wallNs).sum / 1e9
    def perCall(name: String, scale: Double): Double = {
      val xs = spans.filter(_.name == name).map(_.wallNs / scale)
      if (xs.isEmpty) 0.0 else Stats.median(xs)
    }

    val stage = Seq(
      Metric("ml.Gbdt.gen_s", perFit(wallS("ml.Gbdt.gen")), "s"),
      Metric("ml.Gbdt.rank_s", perFit(wallS("ml.Gbdt.rank")), "s"),
      Metric("ml.Gbdt.calls", perFit(_.count(_.name.startsWith("ml.Gbdt.")).toDouble), "count"),
      Metric("core.Safe.addGenerated_s", perFit(wallS("core.Safe.addGenerated")), "s"),
      Metric("core.Safe.addGenerated_alloc_mb",
        perFit(_.filter(_.name == "core.Safe.addGenerated").map(_.allocBytes).sum / 1048576.0), "MB"),
      Metric("core.InfoValue.ivAll_s", perFit(wallS("core.InfoValue.ivAll")), "s"),
      Metric("core.Correlation.corrMatrix_s", perFit(wallS("core.Correlation.corrMatrix")), "s"),
      Metric("core.Safe.scoringMatrix_s", perFit(wallS("core.Safe.scoringMatrix")), "s"),
      Metric("core.PathMining.self_s",
        perFit(ss => wallS("core.Safe.run")(ss) - FitSpans.map(n => wallS(n)(ss)).sum), "s"),
      Metric("core.Safe.run_s", perFit(wallS("core.Safe.run")), "s"),
      Metric("core.Safe.run_alloc_mb",
        perFit(_.filter(_.name == "core.Safe.run").map(_.allocBytes).sum / 1048576.0), "MB"))

    val reports = w.reports.filter { case (op, _) => fitOps.contains(op) }.map(_._2).toSeq
    def count(f: repro.core.IterationReport => Int): Double =
      if (reports.isEmpty) 0.0 else Stats.median(reports.map(f(_).toDouble))
    val counts = Seq(
      Metric("core.Safe.combos", count(_.combosMined), "count"),
      Metric("core.Safe.generated", count(_.generated), "count"),
      Metric("core.Safe.candidates", count(_.candidates), "count"),
      Metric("core.Safe.after_iv", count(_.afterIv), "count"),
      Metric("core.Safe.after_corr", count(_.afterCorr), "count"),
      Metric("core.Safe.selected", count(_.selected), "count"))

    def sparkWork(names: Seq[String]): Seq[Metric] = names.flatMap { n =>
      val works: Seq[Seq[SparkWork]] =
        if (n == "core.FeaturePlan.batch") spans.filter(_.name == n).map(s => Seq(spark.of(s)))
        else fitOps.map(op => byOp(op).filter(_.name == n).map(spark.of))
      def med(f: SparkWork => Double): Double =
        if (works.isEmpty) 0.0 else Stats.median(works.map(_.map(f).sum))
      Seq(
        Metric(s"$n.spark_jobs", med(_.jobs.toDouble), "count"),
        Metric(s"$n.spark_tasks", med(_.tasks.toDouble), "count"),
        Metric(s"$n.task_run_s", med(_.taskRunS), "s"),
        Metric(s"$n.task_deser_s", med(_.taskDeserS), "s"),
        Metric(s"$n.no_task_s", med(_.noTaskS), "s"))
    }

    val serve = Seq(
      Metric("core.FeaturePlan.transform_ms", perCall("core.FeaturePlan.transform", 1e6), "ms"),
      Metric("core.FeaturePlan.collect_ms", perCall("core.FeaturePlan.collect", 1e6), "ms"),
      Metric("core.FeaturePlan.applyLocal_s", perCall("core.FeaturePlan.applyLocal", 1e9), "s"),
      Metric("core.FeaturePlan.batch_s", perCall("core.FeaturePlan.batch", 1e9), "s"))

    val s = w.meter.samples.toSeq
    val (on, off) = s.partition(_.traced)
    def p50(xs: Seq[Sample]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs.map(_.ms))
    val run = Seq(
      Metric("spark.distinct_plans", w.distinctPlans.toDouble, "count"),
      Metric("jvm.gc_ms_per_op", gcMsPerOp, "ms"),
      Metric("trace.traced_p50_ms", p50(on), "ms"),
      Metric("trace.untraced_p50_ms", p50(off), "ms"),
      Metric("trace.overhead_ms", p50(on) - p50(off), "ms"))

    (stage ++ counts ++ sparkWork(Seq("core.FeaturePlan.batch")) ++ serve ++ run, sparkWork(FitSpans))
  }
}
