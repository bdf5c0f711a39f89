package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.stream.LocalSession

/** The session bootstrap of `perfbench`'s operator workloads, which compile
  * this file and call `create`; it builds [[LocalSession]].
  */
object JobSession {
  def create(appName: String): SparkSession = LocalSession.create(appName)
}
