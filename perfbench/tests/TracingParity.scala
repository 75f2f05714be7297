package repro.perfbench

import repro.core.{Safe, SafeConfig}
import repro.data.SynthClass

/** The tracing decorator must not change what SAFE computes: a traced
  * `Safe.run` over a local engine returns the plan and stage counts of an
  * untraced `Safe.fitLocal`, and records a span for every engine call.
  * Exits non-zero on a mismatch; run by test_tracing.py.
  */
object TracingParity {
  def main(args: Array[String]): Unit = {
    val problems = for {
      (name, seed) <- Seq("magic" -> 3L, "nomao" -> 5L)
      d = SynthClass.generate(SynthClass.specByName(name), seed)
      cfg = SafeConfig(seed = seed)
      plain = Safe.fitLocal(d.train, cfg)
      trace = new Trace(None)
      traced = TracedEngine.fitLocal(d.train, cfg, trace)
      names = trace.spans.map(_.name).toSet
      missing = Seq("core.Safe.run", "ml.Gbdt.gen", "core.Safe.scoringMatrix", "core.Safe.addGenerated",
        "core.InfoValue.ivAll", "core.Correlation.corrMatrix").filterNot(names)
      problem <- Seq(
        Option.when(traced.plan != plain.plan)(s"$name: traced plan differs from fitLocal's"),
        Option.when(traced.reports != plain.reports)(s"$name: traced stage counts differ"),
        Option.when(missing.nonEmpty)(s"$name: no span for ${missing.mkString(", ")}")).flatten
    } yield problem
    problems.foreach(p => println(s"TracingParity FAILED $p"))
    if (problems.nonEmpty) sys.exit(1)
    println("TracingParity ok")
  }
}
