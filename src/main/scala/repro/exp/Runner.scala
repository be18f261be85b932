package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.data.Dataset
import repro.local._
import repro.spade.Spade

/** Shared method runner for the table harnesses: one name per system row in
  * the paper's tables, all executed on the identical substrate
  * (DESIGN.md §2). Runs are wall-clock timed and subject to a deadline
  * (`TLE` like the paper's 7200s limit, scaled down via BENCH_TIMEOUT_SEC).
  */
object Runner {

  val timeoutSec: Double =
    sys.env.get("BENCH_TIMEOUT_SEC").map(_.toDouble).getOrElse(120.0)

  val threads: Int =
    sys.env.get("BENCH_THREADS").map(_.toInt).getOrElse(Par.defaultThreads)

  sealed trait Outcome {
    def timeCell: String
    def densityCell: String
  }
  final case class Ok(seconds: Double, density: Double, rounds: Int) extends Outcome {
    def timeCell: String = f"$seconds%.3f"
    def densityCell: String = if (density >= 100) f"$density%.0f" else f"$density%.3f"
  }
  case object Tle extends Outcome { def timeCell = "TLE"; def densityCell = "TLE" }

  /** Methods applicable to the edge metrics (Table 5/7 row order). */
  val edgeMethods: Seq[String] = Seq("Spade", "GBBS", "PKMC", "FWA", "ALENEX", "Dupin")
  /** Methods applicable to the clique metrics (Table 6/8 row order). */
  val cliqueMethods: Seq[String] = Seq("Spade", "kCLIST", "PBBS", "Dupin")

  /** Run `method` × `metric` on `d`; wall-clock starts after the CSR build
    * and includes any metric preparation the method performs itself (as in
    * the paper, except GBBS whose weighted inputs the paper precomputes
    * offline — we do too, via `metric.localState`, whose construction is
    * shared by all methods).
    */
  def run(method: String, metric: Metric, d: Dataset,
          t: Int = threads, timeout: Double = timeoutSec): Outcome = {
    val deadline = Deadline.in(timeout)
    try {
      val g = d.graph // force the lazy CSR build outside the timed region
      val t0 = System.nanoTime()
      val (density, rounds) = method match {
        case "Dupin" =>
          val r = DupinLocal.run(metric, g,
            DupinLocal.Config(eps = 0.1, threads = t, deadline = deadline))
          (r.bestDensity, r.rounds)
        case "DupinGPO" =>
          val r = DupinLocal.run(metric, g,
            DupinLocal.Config(eps = 0.1, gpo = true, threads = t, deadline = deadline))
          (r.bestDensity, r.rounds)
        case "DupinLPO" =>
          val r = DupinLocal.run(metric, g,
            DupinLocal.Config(eps = 0.1, gpo = true, lpo = true, threads = t, deadline = deadline))
          (r.bestDensity, r.rounds)
        case "GBBS" | "PBBS" =>
          val r = BucketPeeling.run(metric, g, threads = t, deadline = deadline)
          (r.bestDensity, r.rounds)
        case "PKMC" =>
          val r = Pkmc.run(metric, g, deadline)
          (r.bestDensity, r.rounds)
        case "FWA" =>
          val r = Fwa.run(metric, g, deadline = deadline)
          (r.bestDensity, r.rounds)
        case "ALENEX" =>
          val r = Alenex.run(metric, g, threads = t, deadline = deadline)
          (r.bestDensity, r.rounds)
        case "kCLIST" =>
          val r = Kclist.run(metric, g, deadline, threads = t)
          (r.bestDensity, r.rounds)
        case "Spade" =>
          return spadeAvgBatch(metric, d, timeout)
        case other => throw new IllegalArgumentException(s"unknown method $other")
      }
      Ok((System.nanoTime() - t0) / 1e9, density, rounds)
    } catch {
      case _: TleException => Tle
    }
  }

  /** Spade's table cell: average per-batch incremental latency (the paper's
    * protocol — batch size 1K, averaged) on the final fraud-forming batches
    * of the dataset's edge stream; density is Spade's maintained result.
    */
  def spadeAvgBatch(metric: Metric, d: Dataset, timeout: Double,
                    batches: Int = 3, batchSize: Int = 1000): Outcome = {
    val deadline = Deadline.in(timeout)
    try {
      val sp = new Spade(metric, d.n, d.vertexWeights, deadline)
      val nb = math.min(batches, math.max(1, d.edges.size / math.max(1, batchSize) - 1))
      val cut = math.max(0, d.edges.size - nb * batchSize)
      if (cut > 0) sp.insertBatch(d.edges.take(cut)) // untimed initial build
      var total = 0L
      var i = 0
      while (i < nb) {
        val batch = d.edges.slice(cut + i * batchSize, cut + (i + 1) * batchSize)
        val t0 = System.nanoTime()
        sp.insertBatch(batch)
        total += System.nanoTime() - t0
        i += 1
      }
      Ok(total / 1e9 / nb, sp.reportedDensity, nb)
    } catch {
      case _: TleException => Tle
    }
  }

  /** Supplemental: Dupin's Spark dataflow engine, timed end-to-end. The
    * iterative rounds shuffle tiny frames, so shuffle parallelism is dialed
    * down for the duration of the run (restored afterwards).
    */
  def runSpark(spark: SparkSession, metric: Metric, d: Dataset,
               cfg: SparkPeeling.Config = SparkPeeling.Config()): Outcome = {
    val key = "spark.sql.shuffle.partitions"
    val prev = spark.conf.get(key)
    spark.conf.set(key, "8")
    try {
      val g = SparkGraph.fromDataset(spark, d)
      val t0 = System.nanoTime()
      val r = SparkPeeling.run(spark, g, metric, cfg)
      Ok((System.nanoTime() - t0) / 1e9, r.bestDensity, r.rounds)
    } finally spark.conf.set(key, prev)
  }
}
