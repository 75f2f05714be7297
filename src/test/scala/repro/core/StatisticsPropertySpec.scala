package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.ml.LocalMatrix

/** Properties of the row-sum statistics (IV counts, Pearson moments) over
  * small degenerate matrices: constant and duplicate columns, N < β,
  * M ∈ {1, 2}, single-class labels and ±1e300 cells.
  */
class StatisticsPropertySpec extends AnyFunSuite {

  /** Noise, a small integer grid, a constant, or a mix with ±1e300 cells. */
  private def column(n: Int): Gen[Array[Double]] = Gen.oneOf(
    Gen.listOfN(n, Gen.choose(-10.0, 10.0)),
    Gen.listOfN(n, Gen.choose(-2, 2).map(_.toDouble)),
    Gen.choose(-5.0, 5.0).map(List.fill(n)(_)),
    Gen.listOfN(n, Gen.oneOf(-1e300, 1e300, 0.0, 1.0, -3.5))).map(_.toArray)

  private val matrices: Gen[LocalMatrix] = for {
    n <- Gen.choose(1, 30)
    m <- Gen.frequency(3 -> Gen.choose(1, 2), 1 -> Gen.choose(3, 5))
    cols <- Gen.listOfN(m, column(n))
    dup <- Gen.listOfN(m, Gen.oneOf(true, false, false)) // column j repeats column j-1
    y <- Gen.listOfN(n, Gen.oneOf(0.0, 1.0))
  } yield {
    val cs = cols.indices.map(j => if (j > 0 && dup(j)) cols(j - 1) else cols(j))
    LocalMatrix(Array.tabulate(m)(j => s"c$j"), Array.tabulate(n)(i => cs.map(_(i)).toArray), y.toArray)
  }

  private def show(m: LocalMatrix): String =
    m.x.zip(m.y).map { case (r, l) => r.mkString("[", ", ", s"] -> $l") }.mkString("\n")

  private def check(p: Prop): Unit = {
    val params = Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20L))
    val r = Check.check(params, p)
    assert(r.passed, Pretty.pretty(r))
  }

  test("row-sum ivAll equals per-column InfoValue.iv bit for bit") {
    check(Prop.forAllNoShrink(matrices, Gen.choose(2, 10)) { (m, beta) =>
      val ivs = TestData.engine(m).ivAll(m.names.toSeq, beta)
      val ok = m.names.indices.forall { j =>
        java.lang.Double.doubleToLongBits(ivs(m.names(j))) ==
          java.lang.Double.doubleToLongBits(InfoValue.iv(m.column(j), m.y, beta))
      }
      Prop(ok) :| s"beta=$beta\n${show(m)}"
    })
  }

  test("every Pearson entry is finite and in [-1, 1]") {
    check(Prop.forAllNoShrink(matrices) { m =>
      val c = TestData.engine(m).corrMatrix(m.names.toSeq)
      val ok = c.forall(_.forall(v => java.lang.Double.isFinite(v) && v >= -1.0 && v <= 1.0))
      Prop(ok) :| s"corr=${c.map(_.mkString(" ")).mkString("; ")}\n${show(m)}"
    })
  }
}
