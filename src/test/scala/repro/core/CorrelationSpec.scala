package repro.core

import repro.{Oracle, SparkSpec, TestData}
import repro.ml.LocalMatrix
import scala.util.Random

class CorrelationSpec extends SparkSpec {

  private lazy val mat: LocalMatrix = {
    val rng = new Random(7)
    val n = 400
    val a = Array.fill(n)(rng.nextGaussian())
    val b = a.map(v => 2 * v + rng.nextGaussian() * 0.1)  // strongly correlated with a
    val c = Array.fill(n)(rng.nextGaussian())              // independent
    val d = a.map(v => -v + rng.nextGaussian() * 0.05)     // strong negative corr
    LocalMatrix(Array("a", "b", "c", "d"),
      Array.tabulate(n)(i => Array(a(i), b(i), c(i), d(i))), Array.fill(n)(0.0))
  }

  test("matrixLocal: diagonal is 1, matrix is symmetric") {
    val m = TestData.engine(mat).corrMatrix(Seq("a", "b", "c"))
    for (i <- 0 until 3) assert(m(i)(i) == 1.0)
    for (i <- 0 until 3; j <- 0 until 3) assert(math.abs(m(i)(j) - m(j)(i)) < 1e-12)
  }

  test("matrixLocal captures strong positive / negative / no correlation") {
    val m = TestData.engine(mat).corrMatrix(Seq("a", "b", "c", "d"))
    assert(m(0)(1) > 0.95)
    assert(math.abs(m(0)(2)) < 0.2)
    assert(m(0)(3) < -0.95)
  }

  test("matrixLocal matches DuckDB corr() oracle") {
    val df = mat.toDF(spark).drop("label")
    val m = TestData.engine(mat).corrMatrix(Seq("a", "b"))
    import org.apache.spark.sql.functions.{corr, col}
    val sparkDf = df.agg(corr(col("a"), col("b")).as("r"))
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT corr(CAST(a AS DOUBLE), CAST(b AS DOUBLE)) AS r FROM t",
      "t" -> df)
    // and our own estimate agrees with Spark's
    val sparkVal = sparkDf.collect()(0).getDouble(0)
    assert(math.abs(m(0)(1) - sparkVal) < 1e-9)
  }

  test("matrixSpark agrees with matrixLocal to double precision") {
    val names = Seq("a", "b", "c", "d")
    val local = TestData.engine(mat).corrMatrix(names)
    val dist = new Safe.SparkEngine(mat.toDF(spark), "label", Int.MaxValue, 0).corrMatrix(names)
    for (i <- names.indices; j <- names.indices)
      assert(math.abs(local(i)(j) - dist(i)(j)) < 1e-9, s"($i,$j)")
  }

  test("constant columns yield zero correlation, not NaN") {
    val m = LocalMatrix(Array("a", "k"),
      Array.tabulate(50)(i => Array(i.toDouble, 3.0)), Array.fill(50)(0.0))
    val c = TestData.engine(m).corrMatrix(Seq("a", "k"))
    assert(c(0)(1) == 0.0 && !c(0)(1).isNaN)
  }

  test("overflowing moments (|v| ~ 1e300) read as uncorrelated, not NaN, and drop nothing") {
    val n = 50
    val m = LocalMatrix(Array("big", "k", "lin"),
      Array.tabulate(n)(i => Array(i * 1e300 / (n - 1), (i % 3).toDouble, i.toDouble)), Array.fill(n)(0.0))
    val names = Seq("big", "k", "lin")
    val c = TestData.engine(m).corrMatrix(names)
    for (i <- 0 until 3; j <- 0 until 3) assert(java.lang.Double.isFinite(c(i)(j)), s"($i,$j)=${c(i)(j)}")
    assert(c(0)(1) == 0.0 && c(0)(2) == 0.0)
    val ivs = Map("big" -> 0.9, "k" -> 0.5, "lin" -> 0.3)
    assert(Correlation.removeRedundant(names, ivs, c) == names)
  }

  test("removeRedundant drops the lower-IV member of a correlated pair") {
    val names = Seq("a", "b", "c")
    val ivs = Map("a" -> 0.5, "b" -> 0.3, "c" -> 0.2)
    val corrM = TestData.engine(mat).corrMatrix(names)
    val kept = Correlation.removeRedundant(names, ivs, corrM, theta = 0.8)
    assert(kept.contains("a") && !kept.contains("b")) // |corr(a,b)|>0.95, IV a > b
    assert(kept.contains("c"))
  }

  test("removeRedundant keeps everything when no pair crosses theta") {
    val names = Seq("a", "c")
    val ivs = Map("a" -> 0.5, "c" -> 0.2)
    val corrM = TestData.engine(mat).corrMatrix(names)
    assert(Correlation.removeRedundant(names, ivs, corrM).toSet == Set("a", "c"))
  }

  test("removeRedundant counts negative correlation as redundancy") {
    val names = Seq("a", "d")
    val ivs = Map("a" -> 0.5, "d" -> 0.1)
    val corrM = TestData.engine(mat).corrMatrix(names)
    val kept = Correlation.removeRedundant(names, ivs, corrM)
    assert(kept == Seq("a"))
  }

  test("removeRedundant on a fully correlated clique keeps exactly one") {
    val names = Seq("a", "b", "d")
    val ivs = Map("a" -> 0.3, "b" -> 0.6, "d" -> 0.1)
    val corrM = TestData.engine(mat).corrMatrix(names)
    val kept = Correlation.removeRedundant(names, ivs, corrM)
    assert(kept == Seq("b")) // highest IV of the clique
  }

  test("removeRedundant validates matrix dimensions") {
    intercept[IllegalArgumentException] {
      Correlation.removeRedundant(Seq("a", "b"), Map.empty, Array(Array(1.0)))
    }
  }

  test("default theta matches the paper (0.8)") {
    assert(Correlation.DefaultTheta == 0.8)
  }
}
