package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.col
import repro.ml.LocalMatrix
import repro.core.Operators.{BinaryOp, Op, UnaryOp}

/** One generated feature: an operator applied to named input columns.
  * Inputs may be original columns or previously generated features (later
  * iterations build on earlier ones). `name` is a machine-safe column name;
  * `describe` is the human-readable, SQL-valid expression — the paper's
  * interpretability requirement.
  */
final case class GenFeature(op: Op, inputs: Seq[String]) {
  require(inputs.length == op.arity, s"${op.name} needs ${op.arity} inputs, got ${inputs.length}")

  def name: String = s"${op.name}__${inputs.mkString("__")}"

  def column(df: DataFrame): Column = op match {
    case u: UnaryOp  => u.column(df(inputs.head))
    case b: BinaryOp => b.column(df(inputs.head), df(inputs(1)))
  }

  /** SQL expression over a table already containing `inputs` — consumed by
    * the DuckDB oracle.
    */
  def sql: String = op match {
    case u: UnaryOp  => u.sql(inputs.head)
    case b: BinaryOp => b.sql(inputs.head, inputs(1))
  }

  def describe: String = s"$name = $sql"

  /** Evaluate given the values of each input column. */
  def local(input: String => Array[Double]): Array[Double] = op match {
    case u: UnaryOp  => u.local(input(inputs.head))
    case b: BinaryOp => b.local(input(inputs.head), input(inputs(1)))
  }

  /** Evaluate against a matrix that already contains all `inputs`. */
  def applyLocal(m: LocalMatrix): Array[Double] = {
    val pos = m.names.zipWithIndex.toMap
    local(n => m.column(pos(n)))
  }
}

object GenFeature {

  /** Appends dependency-ordered features to `m` with one `withColumns`: an
    * input is an original column of `m` or a feature earlier in `gs`.
    */
  def appendLocal(m: LocalMatrix, gs: Seq[GenFeature]): LocalMatrix =
    if (gs.isEmpty) m
    else {
      val pos = m.names.zipWithIndex.toMap
      val cols = scala.collection.mutable.HashMap.empty[String, Array[Double]]
      val column = (n: String) => cols.getOrElseUpdate(n, m.column(pos(n)))
      val made = gs.map(g => { val c = g.local(column); cols(g.name) = c; c }).toArray
      m.withColumns(gs.map(_.name).toArray, Array.tabulate(m.rows)(i => made.map(_(i))))
    }
}

/** Ψ — the feature generation function produced by SAFE (Eq. 1) and the
  * comparator algorithms.
  *
  * @param generated all derived features in dependency order (an input of
  *                  generated(k) is either an original column or the name of
  *                  some generated(j), j < k)
  * @param keep      the final output columns (original and/or generated
  *                  names), i.e. the selected feature set
  */
final case class FeaturePlan(generated: Seq[GenFeature], keep: Seq[String]) {
  require(keep.distinct.length == keep.length, "duplicate names in keep")

  def width: Int = keep.length

  private val genNames: Set[String] = generated.map(_.name).toSet

  /** Original (non-generated) columns among the outputs. */
  def baseKeep: Seq[String] = keep.filterNot(genNames)

  /** Derived features that are actually needed to produce `keep` — the kept
    * generated features plus their transitive generated inputs, in order.
    */
  def neededGenerated: Seq[GenFeature] = {
    val byName = generated.map(g => g.name -> g).toMap
    val needed = scala.collection.mutable.Set.empty[String]
    def mark(n: String): Unit = byName.get(n).foreach { g =>
      if (needed.add(n)) g.inputs.foreach(mark)
    }
    keep.foreach(mark)
    generated.filter(g => needed(g.name))
  }

  /** Apply Ψ to a DataFrame of original feature columns (a label column, if
    * named and present, is passed through). Pure Catalyst — works on a
    * 1-row frame for real-time inference.
    */
  def transform(df: DataFrame, labelCol: Option[String] = Some("label")): DataFrame = {
    val withGen = neededGenerated.foldLeft(df)((d, g) => d.withColumn(g.name, g.column(d)))
    val cols = keep ++ labelCol.filter(df.columns.contains)
    withGen.select(cols.map(col): _*)
  }

  /** Apply Ψ to a local matrix of original features. */
  def applyLocal(m: LocalMatrix): LocalMatrix =
    GenFeature.appendLocal(m, neededGenerated).selectNames(keep)

  /** Human-readable description of the output feature set. */
  def describe: Seq[String] = {
    val defs = neededGenerated.map(_.describe)
    defs ++ Seq(s"output = [${keep.mkString(", ")}]")
  }

  /** Stable feature identities for the Table VI stability experiment. */
  def featureIds: Seq[String] = keep
}
