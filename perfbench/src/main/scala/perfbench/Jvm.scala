package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** JMX readings taken around calls into the program. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Bytes allocated so far by each live thread. */
  def allocatedByThread(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes allocated between two snapshots, summed over threads (threads
    * that ended in between are not counted).
    */
  def allocatedSince(before: Map[Long, Long]): Long =
    allocatedByThread().iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum

  def currentThreadAllocated: Long = threads.getCurrentThreadAllocatedBytes

  def gcMillis: Long = gcs.iterator.map(_.getCollectionTime).filter(_ >= 0).sum

  def processCpuNanos: Long = os.getProcessCpuTime

  /** Heap in use after full collections, in MB. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  def maxHeapMb: Long = Runtime.getRuntime.maxMemory / (1L << 20)
}

/** What one traced call cost the JVM: wall, GC, allocation and CPU. */
final class JvmWindow {
  private val wall0 = System.nanoTime()
  private val cpu0 = Jvm.processCpuNanos
  private val gc0 = Jvm.gcMillis
  private val alloc0 = Jvm.allocatedByThread()

  /** Records `jvm.gc_s`, `jvm.alloc_mb` and `Par.cpu_util` for the window. */
  def close(tr: Tracer, threads: Int): Unit = {
    val wall = System.nanoTime() - wall0
    tr.set("jvm.gc_s", (Jvm.gcMillis - gc0) / 1e3)
    tr.set("jvm.alloc_mb", Jvm.allocatedSince(alloc0) / 1e6)
    tr.set("Par.cpu_util", (Jvm.processCpuNanos - cpu0).toDouble / (wall.toDouble * threads))
  }
}
