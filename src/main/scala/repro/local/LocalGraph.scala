package repro.local

/** Immutable CSR (compressed sparse row) undirected graph.
  *
  * This is the shared-memory substrate every *timed* algorithm runs on
  * (paper's testbed is C++/OpenMP; see DESIGN.md §2). Vertices are dense
  * ints `[0, n)`. Each undirected edge {u,v} is stored twice (u→v and v→u)
  * with an aligned per-direction weight. Adjacency lists are sorted by
  * neighbor id by construction (see [[LocalGraph.fromEdges]]), so
  * membership tests are binary searches (needed by the clique metrics).
  *
  * @param n       number of vertices
  * @param offsets CSR row offsets, size n+1
  * @param nbrs    concatenated sorted adjacency lists, size 2|E|
  * @param ew      weight of the edge to `nbrs(i)`, aligned with `nbrs`
  * @param vw      vertex weights (suspiciousness `a_i`), size n
  */
final class LocalGraph(
    val n: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val ew: Array[Double],
    val vw: Array[Double]) {

  /** Number of undirected edges. */
  val m: Long = nbrs.length / 2L

  def degree(u: Int): Int = offsets(u + 1) - offsets(u)

  /** True iff {u,v} is an edge (binary search over sorted adjacency). */
  def hasEdge(u: Int, v: Int): Boolean = {
    var lo = offsets(u); var hi = offsets(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val x = nbrs(mid)
      if (x == v) return true
      else if (x < v) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Sum of all edge weights (each undirected edge counted once). */
  def totalEdgeWeight: Double = {
    var s = 0.0; var i = 0
    while (i < ew.length) { s += ew(i); i += 1 }
    s / 2.0
  }

  /** A copy of this graph with every edge weight replaced by `f(u, v, w)`. */
  def mapEdgeWeights(f: (Int, Int, Double) => Double): LocalGraph = {
    val ew2 = new Array[Double](ew.length)
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) { ew2(i) = f(u, nbrs(i), ew(i)); i += 1 }
      u += 1
    }
    new LocalGraph(n, offsets, nbrs, ew2, vw)
  }

  /** A copy with vertex weights replaced by `f(u)`. */
  def mapVertexWeights(f: Int => Double): LocalGraph =
    new LocalGraph(n, offsets, nbrs, ew, Array.tabulate(n)(f))

  /** Canonical (src < dst) edge triples, e.g. for feeding Spark/DuckDB. */
  def canonicalEdges: Array[(Int, Int, Double)] = {
    val out = Array.newBuilder[(Int, Int, Double)]
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        if (u < nbrs(i)) out += ((u, nbrs(i), ew(i)))
        i += 1
      }
      u += 1
    }
    out.result()
  }
}

object LocalGraph {

  /** Property 3.1: a suspiciousness weight is finite and non-negative. */
  private def isWeight(w: Double): Boolean = w >= 0.0 && w <= Double.MaxValue

  /** Bucket starts of a counting sort of `keys(0 until m)` over `[0, n)`:
    * key k owns slots `[start(k), start(k + 1))`, and `start(n) == m`.
    */
  private def bucketStarts(keys: Array[Int], m: Int, n: Int): Array[Int] = {
    val start = new Array[Int](n + 1)
    var i = 0
    while (i < m) { start(keys(i) + 1) += 1; i += 1 }
    var k = 0
    while (k < n) { start(k + 1) += start(k); k += 1 }
    start
  }

  /** Build from undirected edge triples (src, dst, weight), in either orientation.
    *
    * Duplicate {u,v} pairs are coalesced by summing weights in input order
    * (multi-edges in transaction data add suspiciousness, matching the
    * paper's DW usage). Self-loops are dropped. Edge and vertex weights must
    * be finite and non-negative (Property 3.1), endpoints in `[0, n)`;
    * anything else is an `IllegalArgumentException`.
    *
    * The build is sort-free in the comparison sense (as in GBBS): two stable
    * counting sorts, by v then by u, put the canonical pairs in (u, v) order
    * with duplicates still in input order; each run of equal pairs is
    * summed left to right; the pairs are then scattered in (u, v) order, so
    * every adjacency list comes out sorted — x first receives its smaller
    * neighbors a from pairs (a, x), ascending, then its larger ones.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)],
                vertexWeights: Array[Double] = null): LocalGraph = {
    val vwArr = if (vertexWeights != null) vertexWeights else new Array[Double](n)
    require(vwArr.length == n, "vertexWeights length must equal n")
    val badVertex = vwArr.indexWhere(w => !isWeight(w))
    require(badVertex < 0,
      s"vertex $badVertex weight ${vwArr(badVertex)} is not finite and non-negative")

    // Canonical (u < v) pairs in primitive arrays, in input order.
    var us = new Array[Int](math.max(edges.knownSize, 16))
    var vs = new Array[Int](us.length)
    var ws = new Array[Double](us.length)
    var m = 0
    val it = edges.iterator
    while (it.hasNext) {
      // Field reads and explicit throws: a tuple pattern would allocate a
      // new tuple per edge, and `require`'s by-name message a closure.
      val e = it.next(); val a = e._1; val b = e._2; val w = e._3
      if (!isWeight(w))
        throw new IllegalArgumentException(s"edge ($a,$b) weight $w is not finite and non-negative")
      if (a != b) {
        val u = math.min(a, b); val v = math.max(a, b)
        if (u < 0 || v >= n) throw new IllegalArgumentException(s"edge ($a,$b) out of range [0,$n)")
        if (m == us.length) {
          us = java.util.Arrays.copyOf(us, 2 * m)
          vs = java.util.Arrays.copyOf(vs, 2 * m)
          ws = java.util.Arrays.copyOf(ws, 2 * m)
        }
        us(m) = u; vs(m) = v; ws(m) = w; m += 1
      }
    }

    // Stable counting sort by v, into (u1, w1) bucketed by byV.
    val byV = bucketStarts(vs, m, n)
    val cur = byV.clone()
    val u1 = new Array[Int](m); val w1 = new Array[Double](m)
    var i = 0
    while (i < m) {
      val p = cur(vs(i)); cur(vs(i)) = p + 1
      u1(p) = us(i); w1(p) = ws(i); i += 1
    }
    // Stable counting sort by u, back into (vs, ws): slots of u are in v order.
    val byU = bucketStarts(us, m, n)
    System.arraycopy(byU, 0, cur, 0, n + 1)
    var v = 0
    while (v < n) {
      i = byV(v)
      while (i < byV(v + 1)) {
        val p = cur(u1(i)); cur(u1(i)) = p + 1
        vs(p) = v; ws(p) = w1(i); i += 1
      }
      v += 1
    }

    // Coalesce runs of equal pairs in place; u's distinct pairs end up in
    // [pairStart(u), pairStart(u + 1)). offsets(x + 1) counts x's degree.
    val pairStart = new Array[Int](n + 1)
    val offsets = new Array[Int](n + 1)
    var k = 0
    var u = 0
    while (u < n) {
      pairStart(u) = k
      i = byU(u)
      while (i < byU(u + 1)) {
        val b = vs(i); var acc = ws(i); i += 1
        while (i < byU(u + 1) && vs(i) == b) { acc += ws(i); i += 1 }
        vs(k) = b; ws(k) = acc; k += 1
        offsets(u + 1) += 1; offsets(b + 1) += 1
      }
      u += 1
    }
    pairStart(n) = k
    u = 0
    while (u < n) { offsets(u + 1) += offsets(u); u += 1 }

    // Scatter both directions in (u, v) order: adjacency comes out sorted.
    System.arraycopy(offsets, 0, cur, 0, n + 1)
    val nbrs = new Array[Int](2 * k)
    val ew   = new Array[Double](2 * k)
    u = 0
    while (u < n) {
      i = pairStart(u)
      while (i < pairStart(u + 1)) {
        val b = vs(i); val w = ws(i)
        nbrs(cur(u)) = b; ew(cur(u)) = w; cur(u) += 1
        nbrs(cur(b)) = u; ew(cur(b)) = w; cur(b) += 1
        i += 1
      }
      u += 1
    }
    new LocalGraph(n, offsets, nbrs, ew, vwArr)
  }
}
