package org.apache.spark

import org.apache.spark.metrics.source.CodegenMetrics

/** Access to driver internals that Spark keeps package-private. */
object PerfbenchBus {

  /** Block until every posted listener event has been delivered, so that
    * listener counts are complete when a repeat is summarised.
    */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Whole-stage and expression classes compiled so far (Janino compiles). */
  def codegenCompiles: Long = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
}
