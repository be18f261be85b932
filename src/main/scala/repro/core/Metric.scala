package repro.core

import repro.local.{LocalGraph, Par}

/** A DSD density metric `g(S) = f(S)/|S|` in Dupin's framework (§2.1).
  *
  * A metric contributes two things:
  *   1. `prepare` — rewrite the raw graph's vertex/edge weights into the
  *      effective suspiciousness `a_i` / `c_ij` the metric peels on
  *      (identity for clique metrics, which peel on clique counts instead);
  *   2. `k` — the constant in the peeling threshold `k(1+ε)·g(S)` and the
  *      approximation ratio `k(1+ε)` (Thm 4.2): 2 for DG/DW/FD, clique size
  *      for TDS/kCLiDS.
  *
  * `localState` builds the incremental peeling-weight state used by every
  * local-engine algorithm.
  */
sealed trait Metric {
  def name: String
  def k: Int
  /** Whether peeling weights are edge sums (true) or clique counts (false). */
  def edgeBased: Boolean
  /** Effective-weight rewrite of the raw graph. */
  def prepare(g: LocalGraph): LocalGraph
  /** Incremental peeling state over the *prepared* graph. `threads` funds
    * the clique metrics' initial counting pass — parallel for the parallel
    * systems (Dupin, PBBS, kCLIST's listing), 1 for sequential ones.
    */
  def localState(g: LocalGraph, threads: Int = 1): MetricState =
    if (edgeBased) new EdgeMetricState(prepare(g))
    else new CliqueMetricState(g, k, threads)
}

object Metric {
  /** Fraudar's `c` in `c_ij = 1/log(x + c)` (Listing 1 uses 5). */
  val FraudarC = 5.0

  /** The five metrics of §2.1, in the paper's order. */
  val all: Seq[Metric] = Seq(DG, DW, FD, TDS, KCliDS(4))
  val edgeMetrics: Seq[Metric] = Seq(DG, DW, FD)
  val cliqueMetrics: Seq[Metric] = Seq(TDS, KCliDS(4))

  def byName(s: String): Metric = s match {
    case "DG" => DG
    case "DW" => DW
    case "FD" => FD
    case "TDS" => TDS
    case kc if kc.startsWith("kCLiDS") => KCliDS(kc.stripPrefix("kCLiDS-").toIntOption.getOrElse(4))
    case _ => throw new IllegalArgumentException(s"unknown metric $s")
  }
}

/** DG [Charikar'00]: f(S) = |E[S]| — every edge weighs 1, vertices 0. */
case object DG extends Metric {
  val name = "DG"; val k = 2; val edgeBased = true
  def prepare(g: LocalGraph): LocalGraph =
    g.mapEdgeWeights((_, _, _) => 1.0).mapVertexWeights(_ => 0.0)
}

/** DW [Gudapati et al.]: f(S) = Σ c_ij — raw edge weights, vertices 0. */
case object DW extends Metric {
  val name = "DW"; val k = 2; val edgeBased = true
  def prepare(g: LocalGraph): LocalGraph = g.mapVertexWeights(_ => 0.0)
}

/** FD (Fraudar [Hooi et al.]): f(S) = Σ a_i + Σ 1/log(x+c) where x is the
  * degree of the "object" endpoint. On general graphs we take the
  * higher-degree endpoint as the object (in customer→merchant bipartite
  * graphs that is the merchant, matching the paper's deployment).
  */
case object FD extends Metric {
  val name = "FD"; val k = 2; val edgeBased = true
  def prepare(g: LocalGraph): LocalGraph =
    g.mapEdgeWeights { (u, v, _) =>
      1.0 / math.log(math.max(g.degree(u), g.degree(v)) + Metric.FraudarC)
    }
}

/** TDS [Tsourakakis'15]: f(S) = t(S), the triangle count of G[S]. */
case object TDS extends Metric {
  val name = "TDS"; val k = 3; val edgeBased = false
  def prepare(g: LocalGraph): LocalGraph = g
}

/** kCLiDS [Danisch et al.]: f(S) = number of k-cliques of G[S]. */
final case class KCliDS(cliqueK: Int) extends Metric {
  require(cliqueK == 3 || cliqueK == 4, "kCLiDS supported for k in {3,4}")
  val name = s"kCLiDS-$cliqueK"; val k = cliqueK; val edgeBased = false
  def prepare(g: LocalGraph): LocalGraph = g
}

/** Mutable peeling state: tracks the active set S, f(S), and the peeling
  * weights `w_u(S)` (the decrease in f from removing u), with incremental
  * updates on removal. Reads (`w`, `f`) may be done from parallel scans;
  * `remove` must be called from a single thread.
  */
trait MetricState {
  def n: Int
  def activeCount: Int
  def isActive(u: Int): Boolean
  def f: Double
  def w(u: Int): Double
  def remove(u: Int): Unit
  /** The active vertices whose peeling weight can change when `u` is
    * removed (for both edge and clique metrics: u's active neighbors —
    * every k-clique through u lies inside N(u)). Heap-based peelers must
    * refresh these entries after `remove(u)`.
    */
  def activeNeighbors(u: Int): Array[Int]
  /** Remove a whole peeling batch. The default applies removals one by one;
    * states whose update work dominates (clique counts) override this with
    * a genuinely parallel implementation — the parallelism the paper's
    * engine gets from OpenMP's `updateNgh`.
    */
  def removeBatch(us: Array[Int], threads: Int): Unit = us.foreach(remove)
  final def density: Double = if (activeCount == 0) 0.0 else f / activeCount
  /** Ids of the currently active vertices (sorted). */
  final def activeSet: Array[Int] = (0 until n).filter(isActive).toArray
}

/** Active-set bookkeeping shared by the CSR-backed states. */
sealed abstract class CsrMetricState(g: LocalGraph) extends MetricState {
  val n: Int = g.n
  protected val act: Array[Boolean] = Array.fill(n)(true)
  protected var cnt: Int = n

  def activeCount: Int = cnt
  def isActive(u: Int): Boolean = act(u)

  /** u's active neighbors, sorted (adjacency lists are). */
  def activeNeighbors(u: Int): Array[Int] = {
    val lo = g.offsets(u); val hi = g.offsets(u + 1)
    var k = 0; var i = lo
    while (i < hi) { if (act(g.nbrs(i))) k += 1; i += 1 }
    val out = new Array[Int](k)
    k = 0; i = lo
    while (i < hi) { if (act(g.nbrs(i))) { out(k) = g.nbrs(i); k += 1 }; i += 1 }
    out
  }
}

/** Edge-sum peeling state for DG/DW/FD: w_u = a_u + Σ_{v∈S∩N(u)} c_uv. */
final class EdgeMetricState(g: LocalGraph) extends CsrMetricState(g) {
  private val wArr = EdgeMetricState.initialWeights(g)
  private var fVal = EdgeMetricState.initialF(g)

  def f: Double = fVal
  def w(u: Int): Double = wArr(u)

  def remove(u: Int): Unit = {
    require(act(u), s"remove($u): not active")
    fVal -= wArr(u)
    var i = g.offsets(u)
    while (i < g.offsets(u + 1)) {
      val v = g.nbrs(i)
      if (act(v)) wArr(v) -= g.ew(i)
      i += 1
    }
    act(u) = false; wArr(u) = 0.0; cnt -= 1
    if (cnt == 0) fVal = 0.0
  }
}

object EdgeMetricState {
  // The init loops live in methods, not in the constructor's field
  // initializers: there they run with `this` on the operand stack, HotSpot
  // does not compile a loop on stack replacement from a non-empty stack,
  // and the constructor is not called often enough to be compiled whole,
  // so the loops would run interpreted.

  /** w_u = a_u + Σ_{v∈N(u)} c_uv, summed in adjacency order. */
  private def initialWeights(g: LocalGraph): Array[Double] = {
    val a = new Array[Double](g.n)
    var u = 0
    while (u < g.n) {
      var s = g.vw(u); var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { s += g.ew(i); i += 1 }
      a(u) = s; u += 1
    }
    a
  }

  /** f(V) = Σ a_u + Σ c_uv. */
  private def initialF(g: LocalGraph): Double = {
    var s = 0.0; var u = 0
    while (u < g.n) { s += g.vw(u); u += 1 }
    s + g.totalEdgeWeight
  }
}

/** Clique-count peeling state for TDS (k=3) / kCLiDS (k=4): w_u is the
  * number of active k-cliques containing u, f = Σ w_u / k.
  *
  * Both kernels list cliques over a degree ordering (Chiba & Nishizeki,
  * SIAM J. Comput. 1985; kClist, WWW'18): vertices are ranked by
  * (degree, id) and `out(a)` keeps only a's higher-ranked neighbors, so
  * out-lists stay short even at hubs. The common neighbors of a partial
  * clique are stamped into a worker-private marker array, and each edge
  * among them is found once, from its lower-ranked end's out-list. Workers
  * accumulate count deltas privately and the deltas are summed afterwards:
  * counts are integers, so w and f are bit-identical at every thread count
  * and no shared counter is written concurrently.
  */
final class CliqueMetricState(g: LocalGraph, cliqueK: Int, initThreads: Int = 1)
    extends CsrMetricState(g) {
  require(cliqueK == 3 || cliqueK == 4, s"clique size $cliqueK not in {3,4}")
  private val c = new Array[Int](n)
  private var fVal = 0.0

  private def ranksBelow(a: Int, b: Int): Boolean = {
    val da = g.degree(a); val db = g.degree(b)
    da < db || (da == db && a < b)
  }
  // Out-adjacency CSR of the degree orientation.
  private val outOff: Array[Int] = {
    val off = new Array[Int](n + 1)
    Par.parallelFor(n, initThreads) { a =>
      var d = 0; var i = g.offsets(a)
      while (i < g.offsets(a + 1)) { if (ranksBelow(a, g.nbrs(i))) d += 1; i += 1 }
      off(a + 1) = d
    }
    var a = 0
    while (a < n) { off(a + 1) += off(a); a += 1 }
    off
  }
  private val outNbr: Array[Int] = {
    val out = new Array[Int](outOff(n))
    Par.parallelFor(n, initThreads) { a =>
      var k = outOff(a); var i = g.offsets(a)
      while (i < g.offsets(a + 1)) {
        if (ranksBelow(a, g.nbrs(i))) { out(k) = g.nbrs(i); k += 1 }
        i += 1
      }
    }
    out
  }
  private val maxDegree = (0 until n).iterator.map(g.degree).maxOption.getOrElse(0)

  /** One worker's scratch: an epoch-stamped marker array, candidate
    * buffers, and count deltas with the list of vertices they touch.
    */
  private final class Scratch {
    val mark = new Array[Int](n)
    private var stamp = 0
    val nbrBuf = new Array[Int](maxDegree)
    val cand = new Array[Int](maxDegree)
    private val delta = new Array[Int](n)
    private val touched = new Array[Int](n)
    private var nTouched = 0
    var cliques = 0L

    /** A positive stamp no marker holds. */
    def fresh(): Int = {
      if (stamp == Int.MaxValue) { java.util.Arrays.fill(mark, 0); stamp = 0 }
      stamp += 1; stamp
    }
    def add(v: Int, d: Int): Unit = if (d != 0) {
      if (delta(v) == 0) { touched(nTouched) = v; nTouched += 1 }
      delta(v) += d
    }
    /** Folds the deltas into the counts and returns the cliques listed. */
    def drain(): Long = {
      var i = 0
      while (i < nTouched) { val v = touched(i); c(v) += delta(v); delta(v) = 0; i += 1 }
      nTouched = 0
      val k = cliques; cliques = 0; k
    }
  }
  private val idle = new java.util.ArrayDeque[Scratch]()
  private def borrow(): Scratch = idle.synchronized {
    if (idle.isEmpty) new Scratch else idle.pop()
  }
  private def release(s: Scratch): Unit = idle.synchronized(idle.push(s))

  /** Runs `body(s, i)` for i in [0, len) in chunks on `threads` workers,
    * each chunk on a borrowed scratch, then sums every scratch's deltas
    * into the counts. Returns the number of cliques the workers listed.
    */
  private def fanOut(len: Int, threads: Int, minPar: Int)(body: (Scratch, Int) => Unit): Long = {
    val chunks = if (threads <= 1 || len < minPar) 1 else math.min(len, 8 * threads)
    Par.parallelFor(chunks, threads, minPar = 2) { ch =>
      val s = borrow()
      var i = (len.toLong * ch / chunks).toInt
      val hi = (len.toLong * (ch + 1) / chunks).toInt
      while (i < hi) { body(s, i); i += 1 }
      release(s)
    }
    var total = 0L
    idle.forEach(s => total += s.drain())
    total
  }

  /** Lists the cliques closed by `cand(0 until nc)`, the common neighbors
    * of a clique's first k-2 members, all stamped `e`: each candidate for
    * TDS, each edge inside the set for kCLiDS-4 (its candidates are
    * re-stamped `-e` meanwhile). Adds `d` to the count of every candidate
    * in one, and returns how many there are.
    */
  private def closeCliques(s: Scratch, nc: Int, e: Int, d: Int): Int =
    if (cliqueK == 3) {
      var j = 0
      while (j < nc) { s.add(s.cand(j), d); j += 1 }
      nc
    } else {
      var j = 0
      while (j < nc) { s.mark(s.cand(j)) = -e; j += 1 }
      var total = 0
      j = 0
      while (j < nc) {
        val x = s.cand(j)
        var q = 0; var i = outOff(x)
        while (i < outOff(x + 1)) {
          val y = outNbr(i)
          if (s.mark(y) == -e) { s.add(y, d); q += 1 }
          i += 1
        }
        s.add(x, d * q); total += q
        j += 1
      }
      j = 0
      while (j < nc) { s.mark(s.cand(j)) = e; j += 1 }
      total
    }

  /** For each root v in `roots(ro until ro + nr)`, collects the stamped
    * part of out(v) (`mark` = e: the common neighbors of the caller's
    * vertex) and lists the cliques it closes with v. Adds `d` to the counts
    * of v and the closing members, and returns how many were listed; the
    * caller's own vertex is left to the caller.
    */
  private def listFrom(s: Scratch, roots: Array[Int], ro: Int, nr: Int, e: Int, d: Int): Int = {
    var total = 0; var r = ro
    while (r < ro + nr) {
      val v = roots(r)
      var nc = 0; var i = outOff(v)
      while (i < outOff(v + 1)) {
        val x = outNbr(i)
        if (s.mark(x) == e) { s.cand(nc) = x; nc += 1 }
        i += 1
      }
      val k = closeCliques(s, nc, e, d)
      s.add(v, d * k); total += k
      r += 1
    }
    total
  }

  // Initial counts: each clique is listed once, from its lowest-ranked
  // member a, with every other member in out(a).
  locally {
    fVal = fanOut(n, initThreads, minPar = 16) { (s, a) =>
      val e = s.fresh()
      var i = outOff(a)
      while (i < outOff(a + 1)) { s.mark(outNbr(i)) = e; i += 1 }
      val k = listFrom(s, outNbr, outOff(a), outOff(a + 1) - outOff(a), e, 1)
      s.add(a, k); s.cliques += k
    }.toDouble
  }

  def f: Double = fVal
  def w(u: Int): Double = c(u).toDouble

  def remove(u: Int): Unit = removeBatch(Array(u), 1)

  // Batch membership, stamped with the removeBatch call number (at most n
  // calls, since each removes a vertex).
  private val batchMark = new Array[Int](n)
  private var batchNo = 0

  /** Removes a peeling batch in parallel. A clique with several batch
    * members is owned by the smallest, so it is listed (and its survivors
    * decremented) exactly once: u stamps its owned neighbors — active, and
    * not a batch member below u — and lists the cliques among them.
    */
  override def removeBatch(us: Array[Int], threads: Int): Unit = {
    batchNo += 1
    val b = batchNo
    us.foreach { u =>
      require(act(u) && batchMark(u) != b, s"remove($u): not active")
      batchMark(u) = b
    }
    val killed = fanOut(us.length, threads, minPar = 8) { (s, idx) =>
      val u = us(idx)
      val e = s.fresh()
      var nr = 0; var i = g.offsets(u)
      while (i < g.offsets(u + 1)) {
        val v = g.nbrs(i)
        if (act(v) && (batchMark(v) != b || v > u)) { s.mark(v) = e; s.nbrBuf(nr) = v; nr += 1 }
        i += 1
      }
      s.cliques += listFrom(s, s.nbrBuf, 0, nr, e, -1)
    }
    us.foreach { u => act(u) = false; c(u) = 0; cnt -= 1 }
    fVal -= killed.toDouble
    if (cnt == 0) fVal = 0.0
  }
}
