#!/usr/bin/env python3
"""End-to-end SAFE benchmark.

    python3 perfbench/run.py --workload fit-local-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the program and the benchmark from
source on first use (see build.py), then runs one workload in a JVM with a
local Spark. Facts and every metric are printed by name and unit; the last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. With `--trace 1` the metrics
are the per-layer ones. Exits non-zero, printing no result, if anything fails.
"""
import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("fit-local-wide", "fit-spark-biz", "psi-serve")
TIMEOUT_S = 170

# Module opens Spark needs on JDK 17 (the same set the sbt build passes).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio",
         "java.base/java.util", "java.base/java.util.concurrent",
         "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]


def java_cmd(classes, main, args):
    """The JVM command line; every file it writes stays under .bench_build."""
    tmp = os.path.join(build.BUILD, "tmp")
    for d in ("tmp", "spark-local", "warehouse"):
        os.makedirs(os.path.join(build.BUILD, d), exist_ok=True)
    return (["java", "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
             "-XX:ParallelGCThreads=2", "-XX:-UsePerfData",
             f"-Djava.io.tmpdir={tmp}",
             f"-Dspark.local.dir={os.path.join(build.BUILD, 'spark-local')}",
             f"-Dspark.sql.warehouse.dir={os.path.join(build.BUILD, 'warehouse')}",
             f"-Dlog4j2.configurationFile={os.path.join(build.HERE, 'log4j2.properties')}"]
            + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
            + ["-cp", os.pathsep.join([classes, os.path.join(build.SPARK_JARS, "*")]), main]
            + args)


def run_java(cmd):
    """Runs the JVM to completion (killing it after TIMEOUT_S); returns its exit code."""
    p = subprocess.Popen(cmd, cwd=build.ROOT)
    try:
        return p.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {TIMEOUT_S} s", file=sys.stderr)
        p.kill()
        p.wait()
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    classes = build.build()
    result = os.path.join(build.BUILD, f"result-{os.getpid()}.json")
    if os.path.exists(result):
        os.remove(result)
    rc = run_java(java_cmd(classes, "repro.perfbench.Main",
                           ["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace", str(a.trace),
                            "--result", result]))
    if rc != 0 or not os.path.isfile(result):
        sys.exit(f"perfbench: benchmark JVM failed (exit {rc})")
    with open(result) as f:
        line = f.read().strip()
    os.remove(result)
    sys.stdout.flush()
    print(line)


if __name__ == "__main__":
    main()
