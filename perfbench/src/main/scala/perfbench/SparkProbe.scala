package perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.BenchListenerBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Counts the jobs and tasks a Spark detection runs. */
final class SparkProbe(spark: SparkSession) extends SparkListener {
  private val jobStart = new ConcurrentHashMap[Int, Long]()
  private val jobSpans = new java.util.concurrent.ConcurrentLinkedQueue[(Long, Long)]()
  private val tasks = new AtomicLong
  private val taskMs = new AtomicLong
  private val resultBytes = new AtomicLong
  private val shuffleBytes = new AtomicLong
  spark.sparkContext.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobStart.put(e.jobId, e.time)
  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    jobSpans.add((jobStart.getOrDefault(e.jobId, e.time), e.time))
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      taskMs.addAndGet(m.executorRunTime)
      resultBytes.addAndGet(m.resultSize)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  private def reset(): Unit = {
    BenchListenerBus.drain(spark.sparkContext)
    jobStart.clear(); jobSpans.clear()
    Seq(tasks, taskMs, resultBytes, shuffleBytes).foreach(_.set(0))
  }

  /** Runs `body` and records the Spark per-layer counts of that call. */
  def around[A](tr: Tracer, iterations: A => Int)(body: => A): A = {
    reset()
    val t0 = System.currentTimeMillis()
    val out = body
    val t1 = System.currentTimeMillis()
    BenchListenerBus.drain(spark.sparkContext)
    val spans = jobSpans.asScala.toSeq.map { case (a, b) => (math.max(a, t0), math.min(b, t1)) }
    val iters = math.max(1, iterations(out))
    val jobs = spans.size
    tr.set("spark.jobs", jobs)
    tr.set("spark.tasks", tasks.get)
    tr.set("spark.iterations", iters)
    tr.set("spark.jobs_per_iter", jobs.toDouble / iters)
    tr.set("spark.ms_per_iter", (t1 - t0).toDouble / iters)
    tr.set("spark.driver_gap_s", ((t1 - t0) - unionMs(spans)) / 1e3)
    tr.set("spark.task_s", taskMs.get / 1e3)
    tr.set("spark.result_kb", resultBytes.get / 1024.0)
    tr.set("spark.shuffle_kb", shuffleBytes.get / 1024.0)
    out
  }

  private def unionMs(spans: Seq[(Long, Long)]): Long = {
    var total = 0L; var end = Long.MinValue
    spans.filter(s => s._2 > s._1).sortBy(_._1).foreach { case (a, b) =>
      if (a >= end) { total += b - a; end = b }
      else if (b > end) { total += b - end; end = b }
    }
    total
  }
}
