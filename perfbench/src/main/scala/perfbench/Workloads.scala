package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.baselines.Pkmc
import repro.core._
import repro.local._
import repro.spade.Spade
import scala.collection.mutable

/** One workload: how to set up the engine's input, run one detection, and
  * check what the detections returned. The harness in [[Main]] does all
  * timing; a workload only calls the program's public entry points.
  */
abstract class Workload {
  /** From the edge list to the engine's input. */
  def setup(tr: Option[Tracer]): Unit
  def detect(): Unit
  def detectTraced(tr: Tracer): Unit
  def hasNext: Boolean = true
  /** Forgets the detections made so far (the warm-ups). */
  def clearOutcomes(): Unit
  def attempted: Int
  /** Checks every recorded detection; returns how many failed. */
  def check(tr: Option[Tracer]): Int
  /** Result density over the reference density; set by `check`. */
  def densityRatio: Double
  def stamp: Seq[(String, String)] = Nil
  /** Per-layer metrics only this workload reports, with units. */
  def extraLayers: Seq[(String, String)] = Nil
  def close(): Unit = ()
}

object Workload {
  /** ε, GPO and LPO as deployed (and as `Dupin`'s defaults). */
  val Eps = 0.1
  def dupinConfig(threads: Int): DupinLocal.Config =
    DupinLocal.Config(eps = Eps, gpo = true, lpo = true, threads = threads)

  def relClose(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  /** Thm 4.2: Dupin's density is within k(1+ε) of the sequential peel's. */
  def withinBound(d: Double, seq: Double, k: Int): Boolean =
    d * k * (1 + Eps) * (1 + 1e-12) >= seq

  /** `LocalGraph.fromEdges`; traced, also its allocation and CSR size. */
  def fromEdges(tr: Option[Tracer], n: Int, edges: Iterable[(Int, Int, Double)],
                vw: Array[Double]): LocalGraph = tr match {
    case None => LocalGraph.fromEdges(n, edges, vw)
    case Some(t) =>
      val a0 = Jvm.currentThreadAllocated
      val g = t.span("LocalGraph.fromEdges")(LocalGraph.fromEdges(n, edges, vw))
      t.set("LocalGraph.fromEdges_alloc_mb", (Jvm.currentThreadAllocated - a0) / 1e6)
      t.set("LocalGraph.csr_mb",
        (g.offsets.length * 4L + g.nbrs.length * 4L + g.ew.length * 8L + g.vw.length * 8L) / 1e6)
      g
  }

  /** Σ a_i + Σ c_ij over S, divided by |S|, on an edge-weighted CSR. */
  def edgeDensity(g: LocalGraph, set: Array[Int]): Double = {
    val in = new Array[Boolean](g.n)
    set.foreach(in(_) = true)
    var f = 0.0
    set.foreach { u =>
      f += g.vw(u)
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { if (u < g.nbrs(i) && in(g.nbrs(i))) f += g.ew(i); i += 1 }
    }
    if (set.isEmpty) 0.0 else f / set.length
  }
}

/** A local-engine workload: CSR set-up, then `prepare` + state + `runOn`. */
final class LocalWorkload(metric: Metric, input: Input, threads: Int) extends Workload {
  import Workload._
  private val cfg = dupinConfig(threads)
  private var g: LocalGraph = _
  private val outcomes = mutable.ArrayBuffer[(Array[Int], Double)]()
  private var ratio = Double.NaN

  def setup(tr: Option[Tracer]): Unit = {
    g = null
    g = fromEdges(tr, input.n, input.edges, input.vw)
  }

  private def state(gp: LocalGraph): MetricState =
    if (metric.edgeBased) new EdgeMetricState(gp) else new CliqueMetricState(gp, metric.k, threads)

  def detect(): Unit = {
    val r = DupinLocal.runOn(state(metric.prepare(g)), metric.k, cfg)
    outcomes += ((r.bestSet, r.bestDensity))
  }

  def detectTraced(tr: Tracer): Unit = {
    val win = new JvmWindow
    val gp = tr.span("Metric.prepare")(metric.prepare(g))
    val st = tr.span("MetricState.init")(state(gp))
    tr.set("MetricState.init_work", if (metric.edgeBased) gp.m.toDouble else st.f)
    val ts = new TracedState(st)
    val t0 = System.nanoTime()
    val r = tr.span("DupinLocal.runOn")(DupinLocal.runOn(ts, metric.k, cfg))
    val runOn = System.nanoTime() - t0
    win.close(tr, threads)
    tr.set("DupinLocal.removeBatch_s", ts.removeBatchNs / 1e9)
    tr.set("DupinLocal.select_s", (runOn - ts.removeBatchNs) / 1e9)
    tr.set("DupinLocal.removeBatch_calls", ts.removeBatchCalls)
    tr.set("DupinLocal.rounds", r.rounds)
    tr.set("DupinLocal.lpo_trims", r.sparseTrims.toDouble)
    tr.set("DupinLocal.long_tail", r.longTailPeels.toDouble)
    tr.set("DupinLocal.active_frac", ts.activeFraction)
    outcomes += ((r.bestSet, r.bestDensity))
  }

  def clearOutcomes(): Unit = outcomes.clear()
  def attempted: Int = outcomes.size
  def densityRatio: Double = ratio

  def check(tr: Option[Tracer]): Int = {
    val st = metric.localState(g)
    tr.foreach(_.beginOp())
    val seq = Tracer.maybe(tr, "SequentialPeeling.runOn")(SequentialPeeling.runOn(st))
    val (set0, d0) = outcomes.head
    val in = new Array[Boolean](g.n)
    set0.foreach(in(_) = true)
    val recomputed = Pkmc.metricDensity(metric, g, in, set0.length)
    val firstOk = relClose(recomputed, d0) && withinBound(d0, seq.bestDensity, metric.k)
    ratio = d0 / seq.bestDensity
    outcomes.count { case (s, d) => !(firstOk && java.util.Arrays.equals(s, set0) && d == d0) }
  }
}

/** Listing 1 through Spark: `VSusp(vw)`, `ESusp(amount)`, `ParDetect`. */
final class SparkWorkload(input: Input, threads: Int, localDir: String) extends Workload {
  import Workload._
  /** Fixed so a run on any machine shuffles the same way. */
  val ShufflePartitions = 4
  private val t0 = System.nanoTime()
  private val spark = SparkSession.builder
    .master(s"local[$threads]")
    .appName("perfbench")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.driver.bindAddress", "127.0.0.1")
    .config("spark.ui.enabled", "false")
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
    // Adaptive execution re-plans each tiny per-iteration query in extra
    // jobs; off, the job count is the engine's own.
    .config("spark.sql.adaptive.enabled", "false")
    .config("spark.local.dir", localDir)
    .config("spark.sql.warehouse.dir", localDir + "/warehouse")
    .getOrCreate()
  /** Session start-up, measured once; not part of `setup_s`. */
  val sessionSeconds: Double = (System.nanoTime() - t0) / 1e9
  private var probe: SparkProbe = _
  private var v: DataFrame = _
  private var e: DataFrame = _
  private var dupin: Dupin = _
  private val outcomes = mutable.ArrayBuffer[(Array[Long], Double)]()
  private var ratio = Double.NaN

  def setup(tr: Option[Tracer]): Unit = {
    import spark.implicits._
    if (v != null) { v.unpersist(true); e.unpersist(true) }
    v = input.vw.indices.map(i => (i.toLong, input.vw(i))).toDF("id", "vw").cache()
    e = input.edges.map(t => (t._1.toLong, t._2.toLong, t._3)).toDF("src", "dst", "amount").cache()
    v.count(); e.count()
    dupin = new Dupin(spark).VSusp(col("vw")).ESusp(col("amount")).setEpsilon(Eps).LoadGraph(v, e)
  }

  def detect(): Unit = {
    val ids = dupin.ParDetect()
    outcomes += ((ids, dupin.lastResult.bestDensity))
  }

  def detectTraced(tr: Tracer): Unit = {
    if (probe == null) probe = new SparkProbe(spark)
    tr.set("spark.session_s", sessionSeconds)
    val win = new JvmWindow
    val ids = probe.around(tr, (_: Array[Long]) => dupin.lastResult.history.length) {
      tr.span("Dupin.ParDetect")(dupin.ParDetect())
    }
    win.close(tr, threads)
    outcomes += ((ids, dupin.lastResult.bestDensity))
  }

  def clearOutcomes(): Unit = outcomes.clear()
  def attempted: Int = outcomes.size
  def densityRatio: Double = ratio

  /** The same input on the local engine: pairs' amounts summed, `vw` as a_i. */
  def check(tr: Option[Tracer]): Int = {
    val g = LocalGraph.fromEdges(input.n, input.edges, input.vw)
    val local = DupinLocal.runOn(new EdgeMetricState(g), 2, dupinConfig(threads))
    val seq = SequentialPeeling.runOn(new EdgeMetricState(g))
    val ref = local.bestSet.map(_.toLong)
    ratio = outcomes.head._2 / local.bestDensity
    outcomes.count { case (ids, d) =>
      !(java.util.Arrays.equals(ids, ref) &&
        relClose(edgeDensity(g, ids.map(_.toInt)), d) &&
        withinBound(d, seq.bestDensity, 2))
    }
  }

  override def stamp: Seq[(String, String)] = Seq(
    "spark_version" -> spark.version,
    "spark_master" -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "adaptive" -> spark.conf.get("spark.sql.adaptive.enabled"))

  override def extraLayers: Seq[(String, String)] = Seq(
    "spark.session_s" -> "s", "spark.jobs" -> "count", "spark.tasks" -> "count",
    "spark.iterations" -> "count", "spark.jobs_per_iter" -> "count", "spark.ms_per_iter" -> "ms",
    "spark.driver_gap_s" -> "s", "spark.task_s" -> "s", "spark.result_kb" -> "KB", "spark.shuffle_kb" -> "KB")

  override def close(): Unit = spark.stop()
}

/** Table 9's stream: Spade holds the prefix, then takes the last
  * transactions in 1,000-edge batches; the fraud ring's edges are spread
  * over those batches, so every measured batch is fraud-forming.
  */
final class StreamWorkload(input: Input, ring: Vector[(Int, Int, Double)], seed: Long,
                           threads: Int) extends Workload {
  import Workload._
  val BatchSize = 1000
  /** Batches held back from the prefix: more than one run inserts. */
  val TailBatches = 64
  private val (prefix, batches) = {
    val (pre, tail) = input.edges.splitAt(input.edges.size + ring.size - TailBatches * BatchSize)
    (pre, new scala.util.Random(seed).shuffle(tail ++ ring).grouped(BatchSize).toVector)
  }
  private var spade: Spade = _
  private var next = 0
  private val outcomes = mutable.ArrayBuffer[Spade#BatchStats]()
  private var ratio = Double.NaN

  def setup(tr: Option[Tracer]): Unit = {
    spade = null
    spade = new Spade(DW, input.n)
    spade.insertBatch(prefix)
    next = 0
  }

  override def hasNext: Boolean = next < batches.size

  def detect(): Unit = {
    outcomes += spade.insertBatch(batches(next))
    next += 1
  }

  def detectTraced(tr: Tracer): Unit = {
    val win = new JvmWindow
    val a0 = Jvm.currentThreadAllocated
    val st = tr.span("Spade.insertBatch")(spade.insertBatch(batches(next)))
    tr.set("Spade.alloc_mb", (Jvm.currentThreadAllocated - a0) / 1e6)
    win.close(tr, threads)
    tr.set("Spade.suffix_size", st.suffixSize)
    tr.set("Spade.affected_pos", st.affectedPos)
    next += 1
    outcomes += st
  }

  def clearOutcomes(): Unit = outcomes.clear()
  def attempted: Int = outcomes.size
  def densityRatio: Double = ratio

  /** Thm 2.1: with DW each reported value is a real set's density, so it is
    * at most twice a fresh sequential peel of the current graph.
    */
  def check(tr: Option[Tracer]): Int = {
    val reported = spade.reportedDensity
    val fresh = new EdgeMetricState(spade.freshGraph())
    tr.foreach(_.beginOp())
    val seq = Tracer.maybe(tr, "SequentialPeeling.runOn")(SequentialPeeling.runOn(fresh))
    // What Spade rebuilds on every batch: the CSR of the stream so far.
    tr.foreach { t =>
      t.beginOp()
      fromEdges(tr, input.n, prefix ++ batches.take(next).flatten, null)
    }
    ratio = reported / seq.bestDensity
    val finalOk = reported > 0 && reported <= 2 * seq.bestDensity * (1 + 1e-9)
    val bad = outcomes.count(s => !(s.reported > 0 && !s.reported.isInfinite && s.suffixSize > 0))
    if (!finalOk && bad < outcomes.size) bad + 1 else bad
  }
}
