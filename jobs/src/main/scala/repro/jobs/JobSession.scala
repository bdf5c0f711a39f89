package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.stream.LocalSession

/** Shared SparkSession bootstrap for the spark-submit entrypoints. */
object JobSession {
  def create(appName: String): SparkSession = LocalSession.create(appName)

  /** Render a DataFrame as a fixed-width table to stdout (full content). */
  def show(df: org.apache.spark.sql.DataFrame, title: String): Unit = {
    println(s"\n=== $title ===")
    df.show(1000, truncate = false)
  }
}
