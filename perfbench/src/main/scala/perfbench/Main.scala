package perfbench

import java.nio.file.Paths
import repro.core.{FD, KCliDS}

/** Detection-latency benchmark.
  *
  * {{{
  * python3 perfbench/run.py --workload social-fd --seed 1 --seconds 10 --trace 0
  * }}}
  *
  * One client in one JVM issues one detection at a time (a closed loop)
  * for `--seconds`, after set-up and warm-up. `--trace 0` ends with one
  * JSON line holding every sample, from which `run.py` computes the
  * end-to-end metrics over the JVM forks of a run; `--trace 1` ends with
  * the per-layer metrics as the JSON result, measured on a separate traced
  * half of the run. Fork `i` of a run draws its graph from its own
  * generator seed.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, fork: Int)

  /** Generator parameters per workload: (name, `Datasets` shape it copies,
    * vertices, sampled edges, power-law skew).
    */
  val workloads: Seq[(String, String, Int, Int, Double)] = Seq(
    ("social-fd",  "la",   32000, 590000, 0.60),
    ("dense-k4",   "kron",  1600,  46000, 0.70),
    ("txn-spark",  "gfg",   4000,  34000, 0.55),
    ("txn-stream", "grab", 40000, 500000, 0.60))

  /** Set-ups per JVM; `setup_s` is the median over a run's set-ups. */
  val SetupReps = 5
  /** Warm-up lasts at least this long and at least two detections, so the
    * JIT has compiled the hot paths before timing starts.
    */
  val WarmupSeconds = 3.0

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      kv.getOrElse("fork", "0").toInt)
    require(workloads.exists(_._1 == a.workload),
      s"unknown workload ${a.workload}; one of ${workloads.map(_._1).mkString(", ")}")
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val threads = Runtime.getRuntime.availableProcessors()
    val (name, shape, n, m, skew) = workloads.find(_._1 == args.workload).get
    val seed = args.seed * 1000L + 10L * args.fork + workloads.indexWhere(_._1 == name)
    val buildDir = Paths.get(sys.props.getOrElse("perfbench.build", ".bench_build")).toAbsolutePath
    val wl: Workload = name match {
      case "social-fd" => new LocalWorkload(FD, Gen.powerLaw(n, m, skew, seed), threads)
      case "dense-k4"  => new LocalWorkload(KCliDS(4), Gen.powerLaw(n, m, skew, seed), threads)
      case "txn-spark" =>
        val (bg, ring) = Gen.transactions(n, m, skew, seed)
        new SparkWorkload(bg.copy(edges = bg.edges ++ ring), threads, buildDir.resolve("spark-local").toString)
      case "txn-stream" =>
        val (bg, ring) = Gen.transactions(n, m, skew, seed)
        new StreamWorkload(bg, ring, seed, threads)
    }
    val generator = Seq("shape" -> shape, "vertices" -> n.toString, "sampled_edges" -> m.toString,
      "skew" -> skew.toString, "generator_seed" -> seed.toString)
    try run(args, wl, threads, buildDir, generator) finally wl.close()
  }

  private def run(args: Args, wl: Workload, threads: Int, buildDir: java.nio.file.Path,
                  generator: Seq[(String, String)]): Unit = {
    val tr = if (args.trace) Some(new Tracer) else None

    val setups = (1 to SetupReps).map { _ =>
      tr.foreach(_.beginOp())
      val t0 = System.nanoTime()
      wl.setup(tr)
      (System.nanoTime() - t0) / 1e9
    }
    val retainedMb = Jvm.liveHeapMb()

    val warmEnd = System.nanoTime() + (WarmupSeconds * 1e9).toLong
    var warmed = 0
    while (wl.hasNext && (warmed < 2 || System.nanoTime() < warmEnd)) { wl.detect(); warmed += 1 }
    wl.clearOutcomes()

    def loop(seconds: Double)(op: => Unit): Vector[Double] = {
      val end = System.nanoTime() + (seconds * 1e9).toLong
      val out = Vector.newBuilder[Double]
      var first = true
      while (wl.hasNext && (first || System.nanoTime() < end)) {
        val t0 = System.nanoTime()
        op
        out += (System.nanoTime() - t0) / 1e9
        first = false
      }
      out.result()
    }
    val detectTimes = loop(if (args.trace) args.seconds / 2 else args.seconds)(wl.detect())
    val tracedTimes = tr.fold(Vector.empty[Double]) { t =>
      loop(args.seconds / 2) { t.beginOp(); t.span("detect")(wl.detectTraced(t)) }
    }

    val failed = wl.check(tr)
    val attempted = wl.attempted

    val stamp = Seq(
      "workload" -> args.workload, "seed" -> args.seed.toString, "fork" -> args.fork.toString) ++
      generator ++ Seq(
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "threads" -> threads.toString,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "xmx_mb" -> Jvm.maxHeapMb.toString,
      "commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_digest" -> sys.props.getOrElse("perfbench.digest", "unknown"),
      "setup_reps" -> SetupReps.toString, "warmups" -> warmed.toString,
      "samples" -> detectTimes.size.toString, "traced_samples" -> tracedTimes.size.toString,
      "seconds" -> args.seconds.toString) ++ wl.stamp
    println("# " + stamp.map { case (k, v) => s"$k=$v" }.mkString(" "))
    println("# detect_s samples: " + detectTimes.map(t => f"$t%.4f").mkString(" "))
    println("# setup_s samples: " + setups.map(t => f"$t%.4f").mkString(" "))

    tr match {
      case None =>
        def arr(xs: Seq[Double]) = xs.map(Stats.num).mkString("[", ", ", "]")
        println(s"""{"setup_s": ${arr(setups)}, "detect_s": ${arr(detectTimes)}, """ +
          s""""retained_mb": ${Stats.num(retainedMb)}, "density_ratio": ${Stats.num(wl.densityRatio)}, """ +
          s""""attempted": $attempted, "failed": $failed}""")
      case Some(t) =>
        t.write(buildDir.resolve("trace").resolve(s"${args.workload}-seed${args.seed}-fork${args.fork}.jsonl"))
        val untraced = Stats.median(detectTimes); val traced = Stats.median(tracedTimes)
        val metrics = (perLayer ++ wl.extraLayers).map { case (k, unit) => (k, t.median(k), unit) } ++ Seq(
          ("trace.detect_s", traced, "s"),
          ("trace.untraced_detect_s", untraced, "s"),
          ("trace.overhead_frac", traced / untraced - 1, "1"))
        metrics.foreach { case (k, v, u) => println(f"$k%-32s ${Stats.num(v)} $u") }
        println(f"${"fail_rate"}%-32s ${Stats.num(failed.toDouble / attempted)} 1 ($failed of $attempted)")
        val json = metrics.map { case (k, v, u) => s""""$k": {"value": ${Stats.num(v)}, "unit": "$u"}""" }
        println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {${json.mkString(", ")}}}""")
    }
  }

  /** Per-layer metrics every traced run reports, with units; a layer the
    * workload never enters reads 0.
    */
  val perLayer: Seq[(String, String)] = Seq(
    "LocalGraph.fromEdges_s" -> "s", "LocalGraph.fromEdges_alloc_mb" -> "MB", "LocalGraph.csr_mb" -> "MB",
    "Metric.prepare_s" -> "s", "MetricState.init_s" -> "s", "MetricState.init_work" -> "count",
    "DupinLocal.runOn_s" -> "s", "DupinLocal.removeBatch_s" -> "s", "DupinLocal.select_s" -> "s",
    "DupinLocal.removeBatch_calls" -> "count", "DupinLocal.rounds" -> "count",
    "DupinLocal.lpo_trims" -> "count", "DupinLocal.long_tail" -> "count", "DupinLocal.active_frac" -> "1",
    "Par.cpu_util" -> "1", "SequentialPeeling.runOn_s" -> "s",
    "jvm.gc_s" -> "s", "jvm.alloc_mb" -> "MB",
    "Spade.insertBatch_s" -> "s", "Spade.suffix_size" -> "count", "Spade.affected_pos" -> "count",
    "Spade.alloc_mb" -> "MB")
}
