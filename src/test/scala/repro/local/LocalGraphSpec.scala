package repro.local

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.TestGraphs
import repro.testkit.Check.forAll
import scala.collection.mutable.ArrayBuffer

class LocalGraphSpec extends AnyFunSuite {

  private val g = LocalGraph.fromEdges(4,
    Seq((0, 1, 2.0), (1, 2, 1.0), (0, 2, 0.5), (2, 3, 4.0)))

  test("vertex and edge counts") {
    assert(g.n == 4)
    assert(g.m == 4)
  }

  test("degrees") {
    assert(g.degree(0) == 2)
    assert(g.degree(1) == 2)
    assert(g.degree(2) == 3)
    assert(g.degree(3) == 1)
  }

  test("adjacency is sorted") {
    for (u <- 0 until g.n) {
      val nb = (g.offsets(u) until g.offsets(u + 1)).map(g.nbrs)
      assert(nb == nb.sorted, s"adjacency of $u not sorted")
    }
  }

  test("hasEdge agrees with edge list in both directions") {
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(g.hasEdge(2, 3) && g.hasEdge(3, 2))
    assert(!g.hasEdge(0, 3) && !g.hasEdge(3, 0))
    assert(!g.hasEdge(1, 3))
  }

  test("totalEdgeWeight counts each undirected edge once") {
    assert(math.abs(g.totalEdgeWeight - 7.5) < 1e-12)
  }

  test("parallel (duplicate) edges coalesce by summing weights") {
    val h = LocalGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 0, 2.5), (0, 1, 0.5)))
    assert(h.m == 1)
    assert(math.abs(h.totalEdgeWeight - 4.0) < 1e-12)
  }

  test("self-loops are dropped") {
    val h = LocalGraph.fromEdges(3, Seq((0, 0, 9.0), (0, 1, 1.0)))
    assert(h.m == 1)
  }

  test("reversed input edges are canonicalized") {
    val h = LocalGraph.fromEdges(3, Seq((2, 0, 1.0)))
    assert(h.canonicalEdges.toSeq == Seq((0, 2, 1.0)))
  }

  test("canonicalEdges round-trips through fromEdges") {
    val h = LocalGraph.fromEdges(4, g.canonicalEdges.toSeq)
    assert(h.canonicalEdges.toSeq.sorted == g.canonicalEdges.toSeq.sorted)
  }

  test("mapEdgeWeights rewrites weights, keeps structure") {
    val h = g.mapEdgeWeights((_, _, _) => 1.0)
    assert(h.m == g.m)
    assert(math.abs(h.totalEdgeWeight - 4.0) < 1e-12)
    assert(h.degree(2) == g.degree(2))
  }

  test("mapVertexWeights rewrites vw") {
    val h = g.mapVertexWeights(u => u.toDouble)
    assert(h.vw.toSeq == Seq(0.0, 1.0, 2.0, 3.0))
  }

  test("vertex weights default to zero") {
    assert(g.vw.forall(_ == 0.0))
  }

  test("explicit vertex weights are preserved") {
    val h = LocalGraph.fromEdges(2, Seq((0, 1, 1.0)), Array(0.5, 1.5))
    assert(h.vw.toSeq == Seq(0.5, 1.5))
  }

  test("out-of-range edges are rejected") {
    for (e <- Seq((0, 5, 1.0), (-1, 0, 1.0)))
      assertThrows[IllegalArgumentException](LocalGraph.fromEdges(2, Seq(e)))
  }

  test("Property 3.1: NaN, negative and infinite edge weights are rejected, naming the edge") {
    for (w <- Seq(Double.NaN, -1.0, Double.PositiveInfinity)) {
      val e = intercept[IllegalArgumentException] {
        LocalGraph.fromEdges(3, Seq((0, 1, 1.0), (2, 1, w)))
      }
      assert(e.getMessage.contains("(2,1)"), e.getMessage)
    }
  }

  test("Property 3.1: a negative vertex weight is rejected, naming the vertex") {
    val e = intercept[IllegalArgumentException] {
      LocalGraph.fromEdges(3, Seq((0, 1, 1.0)), Array(0.5, 0.0, -0.25))
    }
    assert(e.getMessage.contains("vertex 2"), e.getMessage)
  }

  test("isolated vertices are representable") {
    val h = LocalGraph.fromEdges(5, Seq((0, 1, 1.0)))
    assert(h.n == 5 && h.degree(4) == 0)
  }

  test("property: degree sums to twice the edge count") {
    forAll(TestGraphs.genGraph(maxN = 12)) { h =>
      assert((0 until h.n).map(h.degree).sum.toLong == 2 * h.m)
    }
  }

  test("property: hasEdge symmetric and matches canonical list") {
    forAll(TestGraphs.genGraph(maxN = 10)) { h =>
      val set = h.canonicalEdges.map(e => (e._1, e._2)).toSet
      for (u <- 0 until h.n; v <- 0 until h.n if u != v)
        assert(h.hasEdge(u, v) == (set.contains((u, v)) || set.contains((v, u))))
    }
  }

  /** `fromEdges`'s contract, modelled directly: coalesce canonical pairs
    * with `HashMap.merge` in input order, then sort each adjacency list.
    */
  private def reference(n: Int, edges: Seq[(Int, Int, Double)])
      : (Array[Int], Array[Int], Array[Double]) = {
    val sums = new java.util.HashMap[Long, Double]()
    for ((a, b, w) <- edges if a != b)
      sums.merge(math.min(a, b).toLong * n + math.max(a, b), w, (x, y) => x + y)
    val adj = Array.fill(n)(ArrayBuffer.empty[(Int, Double)])
    sums.forEach { (key, w) =>
      val u = (key / n).toInt; val v = (key % n).toInt
      adj(u) += ((v, w)); adj(v) += ((u, w))
    }
    val sorted = adj.map(_.sortBy(_._1))
    (sorted.scanLeft(0)(_ + _.size), sorted.flatMap(_.map(_._1)), sorted.flatMap(_.map(_._2)))
  }

  /** Random multigraphs: each edge is one of ~m/4 random pairs (self-loops
    * included) in a random orientation, so pairs repeat about four times;
    * half the weights are arbitrary doubles, whose sum depends on the order.
    */
  private val genMultigraph: Gen[(Int, Seq[(Int, Int, Double)])] =
    for {
      n <- Gen.choose(1, 40)
      m <- Gen.choose(0, 120)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      val pairs = Array.fill(m / 4 + 1)((rnd.nextInt(n), rnd.nextInt(n)))
      val weights = Array(1e-17, 0.1, 1.0, 0.0, -0.0)
      val edges = Seq.fill(m) {
        val (a, b) = pairs(rnd.nextInt(pairs.length))
        val w = if (rnd.nextBoolean()) rnd.nextDouble() * 3 else weights(rnd.nextInt(weights.length))
        if (rnd.nextBoolean()) (a, b, w) else (b, a, w)
      }
      (n, edges)
    }

  private def assertMatchesReference(n: Int, edges: Seq[(Int, Int, Double)]): Unit = {
    val g = LocalGraph.fromEdges(n, edges)
    val (offsets, nbrs, ew) = reference(n, edges)
    assert(java.util.Arrays.equals(g.offsets, offsets), s"offsets, n=$n edges=$edges")
    assert(java.util.Arrays.equals(g.nbrs, nbrs), s"nbrs, n=$n edges=$edges")
    assert(java.util.Arrays.equals(g.ew, ew), s"ew, n=$n edges=$edges") // bit-exact doubles
  }

  test("property: fromEdges equals the HashMap-and-sort reference bit for bit") {
    assertMatchesReference(1, Seq((0, 0, 2.0)))
    assertMatchesReference(1, Seq.empty)
    assertMatchesReference(5, Seq.empty)
    assertMatchesReference(3, Seq((1, 2, 0.1), (2, 1, 0.2), (1, 2, 0.3))) // order-sensitive sum
    forAll(genMultigraph, n = 60) { case (n, edges) => assertMatchesReference(n, edges) }
  }
}
