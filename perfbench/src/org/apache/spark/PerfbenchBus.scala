package org.apache.spark

/** The listener bus drain is package-private to Spark; the tracer needs it
  * so that every job and task event of a pass is delivered before the
  * pass's per-layer numbers are read.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
