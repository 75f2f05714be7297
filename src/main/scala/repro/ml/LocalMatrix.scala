package repro.ml

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}

/** A named dense feature matrix with a binary label vector.
  *
  * This is the bridge between the Spark world (where SAFE's generation runs
  * as Catalyst expressions) and the local classifier substrate (which plays
  * the role of scikit-learn in the paper's evaluation). Rows are row-major.
  *
  * @param names column name per feature, length M
  * @param x     rows × M feature values (finite; generation guards NaN/Inf)
  * @param y     labels in {0.0, 1.0}, length rows
  */
final case class LocalMatrix(names: Array[String], x: Array[Array[Double]], y: Array[Double]) {
  require(x.length == y.length, s"rows=${x.length} labels=${y.length}")
  require(x.isEmpty || x(0).length == names.length, "name/width mismatch")

  def rows: Int = x.length
  def cols: Int = names.length

  /** Column `j` as a fresh array. */
  def column(j: Int): Array[Double] = {
    val out = new Array[Double](rows)
    var i = 0
    while (i < rows) { out(i) = x(i)(j); i += 1 }
    out
  }

  /** Projection onto a subset of columns (by index, order preserved). */
  def select(idx: Seq[Int]): LocalMatrix = {
    val ii = idx.toArray
    LocalMatrix(ii.map(names), x.map(r => ii.map(r)), y)
  }

  /** Projection onto a subset of columns by name. */
  def selectNames(keep: Seq[String]): LocalMatrix = {
    val pos = names.zipWithIndex.toMap
    select(keep.map(pos))
  }

  /** Row subset (e.g. bootstrap sample). */
  def takeRows(idx: Array[Int]): LocalMatrix =
    LocalMatrix(names, idx.map(x), idx.map(y))

  /** Horizontal concatenation; names must stay unique. */
  def withColumns(extraNames: Array[String], extra: Array[Array[Double]]): LocalMatrix = {
    require(extra.length == rows, "row count mismatch in withColumns")
    val dup = (names ++ extraNames).groupBy(identity).collect { case (n, g) if g.length > 1 => n }
    require(dup.isEmpty, s"duplicate columns: ${dup.take(3).mkString(",")}")
    LocalMatrix(names ++ extraNames, Array.tabulate(rows)(i => x(i) ++ extra(i)), y)
  }

  /** To a Spark DataFrame with a `label` column appended. */
  def toDF(spark: SparkSession): DataFrame = {
    val schema = StructType(
      names.map(n => StructField(n, DoubleType, nullable = false)) :+
        StructField("label", DoubleType, nullable = false))
    val rowSeq: Seq[Row] = x.indices.map(i => Row.fromSeq((x(i) :+ y(i)).toIndexedSeq))
    spark.createDataFrame(spark.sparkContext.parallelize(rowSeq, math.max(1, math.min(8, rows / 1000))), schema)
  }
}

object LocalMatrix {

  /** Collect a DataFrame into a LocalMatrix. `labelCol` must be 0/1-valued;
    * all other columns are cast to double and decoded by [[Rows.decode]]
    * (non-finite values are zeroed, mirroring the generation-side guard).
    */
  def fromDF(df: DataFrame, labelCol: String = "label"): LocalMatrix = {
    val featNames = df.columns.filter(_ != labelCol)
    require(featNames.length == df.columns.length - 1, s"label column '$labelCol' not found")
    val rows = Rows.select(df, featNames, labelCol).collect().map(Rows.decode(_, featNames.length))
    LocalMatrix(featNames, rows.map(_._1), rows.map(_._2))
  }
}
