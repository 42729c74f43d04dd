package org.apache.spark

/** Test access to the package-private listener bus. */
object ListenerBusAccess {

  /** Block until every posted listener event has been delivered. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
