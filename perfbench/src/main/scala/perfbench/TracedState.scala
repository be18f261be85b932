package perfbench

import java.util.concurrent.atomic.LongAdder
import repro.core.MetricState

/** Delegates to the engine's state, timing `removeBatch` and counting how
  * many of the vertices the engine asked about were active.
  */
final class TracedState(inner: MetricState) extends MetricState {
  private val scanned = new LongAdder
  private val active = new LongAdder
  var removeBatchNs = 0L
  var removeBatchCalls = 0

  def n: Int = inner.n
  def activeCount: Int = inner.activeCount
  def isActive(u: Int): Boolean = {
    val a = inner.isActive(u)
    scanned.increment()
    if (a) active.increment()
    a
  }
  def f: Double = inner.f
  def w(u: Int): Double = inner.w(u)
  def remove(u: Int): Unit = inner.remove(u)
  def activeNeighbors(u: Int): Array[Int] = inner.activeNeighbors(u)
  override def removeBatch(us: Array[Int], threads: Int): Unit = {
    val t0 = System.nanoTime()
    inner.removeBatch(us, threads)
    removeBatchNs += System.nanoTime() - t0
    removeBatchCalls += 1
  }

  /** Active vertices over vertices asked about. */
  def activeFraction: Double = active.sum.toDouble / math.max(1L, scanned.sum)
}
