package repro

import repro.core.Safe
import repro.ml.{LocalMatrix, Metrics}
import scala.util.Random

/** Small deterministic datasets shared across test suites. */
object TestData {

  /** Label driven by the product interaction x0·x1 plus a weak x2 effect —
    * the structure SAFE is designed to exploit. Remaining features are noise.
    */
  def planted(n: Int, m: Int, seed: Long, noise: Double = 0.3): LocalMatrix = {
    require(m >= 3)
    val rng = new Random(seed)
    val x = Array.fill(n)(Array.fill(m)(rng.nextGaussian()))
    val y = x.map { row =>
      val s = 2.0 * row(0) * row(1) + 0.5 * row(2) + rng.nextGaussian() * noise
      if (Metrics.sigmoid(2 * s) > rng.nextDouble()) 1.0 else 0.0
    }
    LocalMatrix(Array.tabulate(m)(j => s"x$j"), x, y)
  }

  /** Linearly separable-ish data: label = 1 iff w·x + ε > 0. The weight
    * vector depends only on `m`, so different seeds are fresh draws from the
    * SAME population (train/test pairs share the true boundary).
    */
  def linear(n: Int, m: Int, seed: Long, noise: Double = 0.2): LocalMatrix = {
    val rng = new Random(seed)
    val w = { val wr = new Random(m * 7919L + 13); Array.fill(m)(wr.nextGaussian()) }
    val x = Array.fill(n)(Array.fill(m)(rng.nextGaussian()))
    val y = x.map { row =>
      val s = row.zip(w).map { case (a, b) => a * b }.sum + rng.nextGaussian() * noise
      if (s > 0) 1.0 else 0.0
    }
    LocalMatrix(Array.tabulate(m)(j => s"x$j"), x, y)
  }

  /** Pure-noise labels (nothing learnable). */
  def noise(n: Int, m: Int, seed: Long): LocalMatrix = {
    val rng = new Random(seed)
    LocalMatrix(
      Array.tabulate(m)(j => s"x$j"),
      Array.fill(n)(Array.fill(m)(rng.nextGaussian())),
      Array.fill(n)(if (rng.nextBoolean()) 1.0 else 0.0))
  }

  /** The local statistics engine over `m`: IV and Pearson exactly as
    * `Safe.fitLocal` computes them.
    */
  def engine(m: LocalMatrix): Safe.LocalEngine = new Safe.LocalEngine(m, Int.MaxValue, 0)

  /** XOR-of-signs data: label = 1 iff sign(x0) != sign(x1) — needs depth-2
    * interactions, defeats any linear model.
    */
  def xor(n: Int, seed: Long): LocalMatrix = {
    val rng = new Random(seed)
    val x = Array.fill(n)(Array(rng.nextGaussian(), rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(row => if ((row(0) > 0) != (row(1) > 0)) 1.0 else 0.0)
    LocalMatrix(Array("x0", "x1", "x2"), x, y)
  }
}
