"""Build file of the benchmark: compiles the program's sources
(`src/main/scala`) together with the benchmark's own (`perfbench/src`,
`perfbench/tests`) with the Scala compiler that ships with Spark.

Classes go to `.bench_build/perfbench/<hash of the sources>/classes`, so a
changed source tree is rebuilt and an unchanged one is reused. Nothing is
written outside the checkout.
"""
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spark_home():
    """SPARK_HOME, else the Spark that the installed pyspark package bundles."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    spec = importlib.util.find_spec("pyspark")
    return os.path.dirname(spec.origin) if spec and spec.origin else ""


SPARK_JARS = os.path.join(spark_home(), "jars")
BUILD = os.path.join(ROOT, ".bench_build")
SCALA_VERSION = "2.13.17"


def sources():
    roots = [os.path.join(ROOT, "src", "main", "scala"),
             os.path.join(HERE, "src"), os.path.join(HERE, "tests")]
    found = []
    for r in roots:
        for d, _, files in os.walk(r):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def check_tree():
    """Fails unless the program's sources and Spark are present."""
    need = os.path.join(ROOT, "src", "main", "scala", "repro", "core", "Safe.scala")
    if not os.path.isfile(need):
        sys.exit(f"perfbench: program sources not found ({os.path.relpath(need, ROOT)})")
    if not os.path.isdir(SPARK_JARS):
        sys.exit("perfbench: no Spark found; set SPARK_HOME to a Spark distribution")


def build():
    """Returns the classes directory, compiling it first if needed."""
    check_tree()
    srcs = sources()
    h = hashlib.sha256(SCALA_VERSION.encode())
    for p in srcs:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    out = os.path.join(BUILD, "perfbench", h.hexdigest()[:16])
    classes = os.path.join(out, "classes")
    if os.path.isfile(os.path.join(out, "ok")):
        return classes
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(classes)
    jar = lambda n: os.path.join(SPARK_JARS, f"{n}-{SCALA_VERSION}.jar")
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData",
           "-cp", os.pathsep.join(jar(n) for n in ("scala-compiler", "scala-library", "scala-reflect")),
           "scala.tools.nsc.Main", "-nowarn", "-usejavacp",
           "-classpath", os.path.join(SPARK_JARS, "*"), "-d", classes] + srcs
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, timeout=800)
    open(os.path.join(out, "ok"), "w").close()
    return classes


if __name__ == "__main__":
    print(build())
