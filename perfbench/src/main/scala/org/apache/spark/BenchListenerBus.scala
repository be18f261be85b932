package org.apache.spark

/** Waits until listener events already posted have been delivered, so a
  * listener's counts are complete when read. The bus is Spark-internal.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
