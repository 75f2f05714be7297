package repro.ml

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType
import scala.collection.immutable.ArraySeq

/** Where the rows of a statistic live.
  *
  * Every selection statistic (GBDT histograms, IV bin counts, Pearson
  * moments) is written once, as a per-row update `add(acc, row)` into one
  * flat `Array[Double]` of a known size. `sum` runs that update over the
  * rows: held locally it folds them in order; on Spark it `treeAggregate`s
  * the same update and merges partial arrays element-wise — the
  * one-aggregator pattern of Spark MLlib's `Summarizer`.
  */
sealed trait Rows[R] {
  def sum(size: Int)(add: (Array[Double], R) => Unit): Array[Double]
}

object Rows {

  /** A decoded feature row and its label. */
  type Labeled = (Array[Double], Double)

  final case class Local[R](rows: Seq[R]) extends Rows[R] {
    def sum(size: Int)(add: (Array[Double], R) => Unit): Array[Double] = {
      val acc = new Array[Double](size)
      rows.foreach(add(acc, _))
      acc
    }
  }

  final case class Distributed[R](rdd: RDD[R]) extends Rows[R] {
    def sum(size: Int)(add: (Array[Double], R) => Unit): Array[Double] =
      rdd.treeAggregate(new Array[Double](size))(
        seqOp = (acc, r) => { add(acc, r); acc },
        combOp = (a, b) => { var i = 0; while (i < a.length) { a(i) += b(i); i += 1 }; a })
  }

  /** The rows of a local matrix (row arrays shared, not copied). */
  def of(m: LocalMatrix): Rows[Labeled] = Local(ArraySeq.unsafeWrapArray(m.x.zip(m.y)))

  /** `featNames` then `labelCol`, all cast to double. */
  def select(df: DataFrame, featNames: Array[String], labelCol: String): DataFrame =
    df.select((featNames :+ labelCol).map(c => col(c).cast(DoubleType)).toIndexedSeq: _*)

  /** The decoded rows of a frame shaped by [[select]]. */
  def decoded(casted: DataFrame): RDD[Labeled] = {
    val m = casted.columns.length - 1
    casted.rdd.map(decode(_, m))
  }

  /** Decodes a row of [[select]] with `m` features. A null or non-finite
    * feature reads 0.0 (the generation-side guard), a null label 0.0.
    */
  def decode(r: Row, m: Int): Labeled = {
    val x = new Array[Double](m)
    var j = 0
    while (j < m) {
      val v = if (r.isNullAt(j)) 0.0 else r.getDouble(j)
      x(j) = if (java.lang.Double.isFinite(v)) v else 0.0
      j += 1
    }
    (x, if (r.isNullAt(m)) 0.0 else r.getDouble(m))
  }
}
