package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The user-facing Dupin API (paper §3, Listing 1), DataFrame-flavoured:
  * suspiciousness functions are Column expressions over the loaded
  * vertex/edge attributes rather than C++ callbacks.
  *
  * {{{
  * val dupin = new Dupin(spark)
  * dupin.VSusp(col("vw"))                              // a_i: side info
  *      .ESusp(lit(1.0) / log(col("dstDeg") + 5.0))    // c_ij: Fraudar
  *      .setEpsilon(0.1)
  *      .LoadGraph(vertices, edges)
  * val fraudsters: Array[Long] = dupin.ParDetect()
  * }}}
  *
  * - `VSusp` / `ESusp` define the metric (Property 3.1: both must be
  *   finite and non-negative, else `ParDetect` throws; `g = f/|S|`
  *   monotone follows). Edge endpoints must be loaded vertices.
  * - `isBenign` marks vertices that are peeled in the first iteration.
  * - `setEpsilon` trades precision for throughput (τ = k(1+ε)g).
  * - `setK(k≥3)` switches to clique-count peeling (TDS at k=3, kCLiDS
  *   above) — `ESusp` is then ignored, matching Listing 4 where esusp≡0.
  */
final class Dupin(spark: SparkSession) {
  private var vsusp: Column = lit(0.0)
  private var esusp: Column = lit(1.0)
  private var benign: Option[Column] = None
  private var eps: Double = 0.1
  private var cliqueK: Int = 0 // 0 = edge-sum metric (k=2)
  private var gpo: Boolean = true
  private var lpo: Boolean = true
  private var loaded: Option[(DataFrame, DataFrame)] = None
  private var last: Option[SparkPeeling.Result] = None

  def VSusp(c: Column): this.type = { vsusp = c; this }
  def ESusp(c: Column): this.type = { esusp = c; this }
  def isBenign(c: Column): this.type = { benign = Some(c); this }
  def setEpsilon(e: Double): this.type = { require(e >= 0); eps = e; this }
  def setK(k: Int): this.type = { require(k >= 3 && k <= 4); cliqueK = k; this }
  /** Toggle the long-tail pruning optimizations (both on by default). */
  def setPruning(globalOpt: Boolean, localOpt: Boolean): this.type = {
    gpo = globalOpt; lpo = localOpt; this
  }

  /** Load a graph: `vertices` needs an `id` column (other columns feed
    * VSusp/isBenign); `edges` needs `src`, `dst` (others feed ESusp).
    */
  def LoadGraph(vertices: DataFrame, edges: DataFrame): this.type = {
    loaded = Some((vertices, edges)); this
  }

  /** Run parallel detection; returns the vertex ids of S^p. */
  def ParDetect(): Array[Long] = {
    val (vRaw, eRaw) = loaded.getOrElse(throw new IllegalStateException("LoadGraph first"))
    val vAll = vRaw.withColumn("vw", vsusp.cast("double"))
      .withColumn("benign", benign.getOrElse(lit(false)))
    val benignIds = vAll.filter(col("benign")).select(col("id").cast("long"))
    val v = vAll.filter(!col("benign")).select(col("id").cast("long"), col("vw"))
    val eW = eRaw.withColumn("w", esusp.cast("double"))
      .select(col("src").cast("long"), col("dst").cast("long"), col("w"))
    validate(vAll.select(col("id").cast("long"), col("vw")), eW)
    val e0 = eW.where(col("src") =!= col("dst"))
      .select(least(col("src"), col("dst")).as("src"),
              greatest(col("dst"), col("src")).as("dst"), col("w"))
      .groupBy("src", "dst").agg(sum("w").as("w"))
    // Benign vertices are peeled "within the current iteration" — i.e.
    // removed before round 1 together with their incident edges.
    val bid = benignIds.withColumnRenamed("id", "bid")
    val e = e0.join(bid, e0("src") === bid("bid"), "left_anti")
      .join(benignIds.withColumnRenamed("id", "bid2"), col("dst") === col("bid2"), "left_anti")
    val cfg = SparkPeeling.Config(eps = eps, gpo = gpo, lpo = lpo)
    val res =
      if (cliqueK >= 3) SparkPeeling.runClique(spark, v, e, cliqueK, cfg)
      else SparkPeeling.runEdge(spark, v, e, 2, cfg)
    last = Some(res)
    res.bestSet
  }

  /** Bad input gets an error, never a wrong density: every edge endpoint
    * must be a loaded vertex (benign ones included), and every VSusp and
    * ESusp weight finite and non-negative (Property 3.1).
    */
  private def validate(v: DataFrame, e: DataFrame): Unit = {
    def notWeight(c: Column): Column = isnan(c) || c < 0 || c === Double.PositiveInfinity
    val dangling = e.select(col("src").as("id")).union(e.select(col("dst").as("id")))
      .join(v, Seq("id"), "left_anti").limit(1).collect()
    require(dangling.isEmpty,
      s"edge endpoint ${dangling.head.get(0)} is not among the loaded vertices")
    val badV = v.where(notWeight(col("vw"))).limit(1).collect()
    require(badV.isEmpty, s"VSusp gives vertex ${badV.head.get(0)} weight " +
      s"${badV.head.get(1)}; it must be finite and non-negative")
    val badE = e.where(notWeight(col("w"))).limit(1).collect()
    require(badE.isEmpty, s"ESusp gives edge (${badE.head.get(0)},${badE.head.get(1)}) " +
      s"weight ${badE.head.get(2)}; it must be finite and non-negative")
  }

  /** Full result (density, rounds, pruning stats) of the last ParDetect. */
  def lastResult: SparkPeeling.Result =
    last.getOrElse(throw new IllegalStateException("ParDetect first"))
}
