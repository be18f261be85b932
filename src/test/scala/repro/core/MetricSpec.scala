package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.local.LocalGraph
import repro.testkit.Check.forAll
import repro.testkit.TestGraphs

/** The five metrics' effective weights and the incremental MetricState
  * machinery (peeling weights, f, removal updates).
  */
class MetricSpec extends AnyFunSuite {

  private def triangle = LocalGraph.fromEdges(3, Seq((0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)))

  // ---------------------------------------------------------- preparation
  test("DG rewrites every edge weight to 1 and vertex weights to 0") {
    val p = DG.prepare(triangle)
    assert(p.canonicalEdges.forall(_._3 == 1.0))
    assert(p.vw.forall(_ == 0.0))
  }

  test("DW keeps edge weights, zeroes vertex weights") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1, 2.5)), Array(1.0, 1.0))
    val p = DW.prepare(g)
    assert(p.canonicalEdges.toSeq == Seq((0, 1, 2.5)))
    assert(p.vw.forall(_ == 0.0))
  }

  test("FD edge weight is 1/log(maxdeg + c)") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1, 9.0), (1, 2, 9.0), (1, 3, 9.0)))
    val p = FD.prepare(g)
    // vertex 1 has degree 3, others 1 → every edge: 1/log(3+5)
    val expect = 1.0 / math.log(8.0)
    assert(p.canonicalEdges.forall(e => math.abs(e._3 - expect) < 1e-12))
  }

  test("FD keeps vertex weights (prior suspiciousness)") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1, 1.0)), Array(0.3, 0.7))
    assert(FD.prepare(g).vw.toSeq == Seq(0.3, 0.7))
  }

  test("metric registry and k constants match the paper") {
    assert(DG.k == 2 && DW.k == 2 && FD.k == 2)
    assert(TDS.k == 3 && KCliDS(4).k == 4)
    assert(Metric.byName("DG") == DG)
    assert(Metric.byName("TDS") == TDS)
    assert(Metric.byName("kCLiDS-4") == KCliDS(4))
  }

  // ------------------------------------------------------ edge metric state
  test("EdgeMetricState initial f and density on the paper example") {
    val st = DW.localState(TestGraphs.paperExample)
    assert(math.abs(st.f - 14.0) < 1e-12)
    assert(math.abs(st.density - 14.0 / 6) < 1e-12)
  }

  test("EdgeMetricState initial peeling weights on the paper example") {
    val st = DW.localState(TestGraphs.paperExample)
    val expected = Seq(1.0, 3.0, 7.0, 5.0, 6.0, 6.0)
    expected.zipWithIndex.foreach { case (w, u) => assert(math.abs(st.w(u) - w) < 1e-12) }
  }

  test("EdgeMetricState removal decreases f by the peeling weight") {
    val st = DW.localState(TestGraphs.paperExample)
    val before = st.f
    val w0 = st.w(0)
    st.remove(0)
    assert(math.abs(st.f - (before - w0)) < 1e-12)
    assert(!st.isActive(0) && st.activeCount == 5)
  }

  test("EdgeMetricState updates neighbor weights after removal") {
    val st = DW.localState(TestGraphs.paperExample)
    st.remove(0) // u1: only edge u1-u2 of weight 1
    assert(math.abs(st.w(1) - 2.0) < 1e-12)
  }

  test("EdgeMetricState double removal is rejected") {
    val st = DW.localState(triangle)
    st.remove(0)
    assertThrows[IllegalArgumentException](st.remove(0))
  }

  test("property: EdgeMetricState initial w and f match a brute-force sum over canonicalEdges") {
    forAll(TestGraphs.genGraph(maxN = 30, p = 0.3)) { raw =>
      val g = FD.prepare(raw)
      val st = new EdgeMetricState(g)
      val w = g.vw.clone()
      var f = g.vw.sum
      for ((u, v, c) <- g.canonicalEdges) { w(u) += c; w(v) += c; f += c }
      for (u <- 0 until g.n) assert(math.abs(st.w(u) - w(u)) <= 1e-12 * (1 + w(u)), s"w($u)")
      assert(math.abs(st.f - f) <= 1e-12 * (1 + f), "f")
    }
  }

  test("property: incremental weights match direct recomputation (DW)") {
    forAll(TestGraphs.genGraph(maxN = 9), n = 25) { g =>
      val st = DW.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(g.n * 31L + g.m)
      while (active.size > 1) {
        val u = active.toSeq(rnd.nextInt(active.size))
        st.remove(u); active -= u
        active.foreach { v =>
          val expect = TestGraphs.directWeight(DW, g, active, v)
          assert(math.abs(st.w(v) - expect) < 1e-9, s"w($v)")
        }
        val fExpect = TestGraphs.subsetDensity(DW, g,
          active.foldLeft(0)((m, v) => m | (1 << v))) * active.size
        assert(math.abs(st.f - fExpect) < 1e-9, "f")
      }
    }
  }

  test("property: incremental weights match direct recomputation (FD)") {
    forAll(TestGraphs.genGraph(maxN = 8), n = 15) { g =>
      val st = FD.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(g.n * 17L)
      while (active.size > 1) {
        val u = active.toSeq(rnd.nextInt(active.size))
        st.remove(u); active -= u
        active.foreach { v =>
          val expect = TestGraphs.directWeight(FD, g, active, v)
          assert(math.abs(st.w(v) - expect) < 1e-9)
        }
      }
    }
  }

  // ---------------------------------------------------- clique metric state
  test("TDS counts one triangle on K3") {
    val st = TDS.localState(triangle)
    assert(st.f == 1.0)
    assert((0 until 3).forall(st.w(_) == 1.0))
  }

  test("TDS on K4: four triangles, each vertex in three") {
    val k4 = TestGraphs.cliqueWithTail(4, 0)
    val st = TDS.localState(k4)
    assert(st.f == 4.0)
    assert((0 until 4).forall(st.w(_) == 3.0))
  }

  test("kCLiDS-4 on K4: exactly one 4-clique") {
    val st = KCliDS(4).localState(TestGraphs.cliqueWithTail(4, 0))
    assert(st.f == 1.0)
    assert((0 until 4).forall(st.w(_) == 1.0))
  }

  test("kCLiDS-4 on K5: five 4-cliques, each vertex in four") {
    val st = KCliDS(4).localState(TestGraphs.cliqueWithTail(5, 0))
    assert(st.f == 5.0)
    assert((0 until 5).forall(st.w(_) == 4.0))
  }

  test("TDS removal updates: removing a K4 vertex leaves one triangle") {
    val st = TDS.localState(TestGraphs.cliqueWithTail(4, 0))
    st.remove(0)
    assert(st.f == 1.0)
    assert((1 until 4).forall(st.w(_) == 1.0))
  }

  test("clique f equals sum of weights divided by k") {
    val g = TestGraphs.cliqueWithTail(5, 3)
    for (m <- Seq(TDS, KCliDS(4))) {
      val st = m.localState(g)
      val sum = (0 until g.n).map(st.w).sum
      assert(math.abs(st.f - sum / m.k) < 1e-9, m.name)
    }
  }

  test("property: TDS incremental counts match brute force after removals") {
    forAll(TestGraphs.genGraph(maxN = 8, p = 0.6), n = 15) { g =>
      val st = TDS.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(42)
      while (active.size > 1) {
        val u = active.toSeq(rnd.nextInt(active.size))
        st.remove(u); active -= u
        val mask = active.foldLeft(0)((m, v) => m | (1 << v))
        val fExpect = TestGraphs.subsetDensity(TDS, g, mask) * active.size
        assert(math.abs(st.f - fExpect) < 1e-9)
        active.foreach { v =>
          assert(math.abs(st.w(v) - TestGraphs.directWeight(TDS, g, active, v)) < 1e-9)
        }
      }
    }
  }

  test("property: kCLiDS-4 incremental counts match brute force after removals") {
    forAll(TestGraphs.genGraph(maxN = 7, p = 0.7), n = 10) { g =>
      val m = KCliDS(4)
      val st = m.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(7)
      while (active.size > 1) {
        val u = active.toSeq(rnd.nextInt(active.size))
        st.remove(u); active -= u
        active.foreach { v =>
          assert(math.abs(st.w(v) - TestGraphs.directWeight(m, g, active, v)) < 1e-9)
        }
      }
    }
  }

  // Random 20–40-vertex graphs built to stress the degree ordering: a
  // circulant ring C_n(1,2) gives most vertices the same degree (rank ties
  // broken by id), a hub sits next to most of the ring, and a dense block
  // plus random chords add 4-cliques.
  private val genTiedGraph: Gen[LocalGraph] =
    for { n <- Gen.choose(20, 40); seed <- Gen.choose(0L, Long.MaxValue) } yield {
      val rnd = new scala.util.Random(seed)
      val hub = rnd.nextInt(n)
      val block = rnd.nextInt(n - 8)
      val edges =
        (for (i <- 0 until n; s <- 1 to 2) yield (i, (i + s) % n, 1.0)) ++
        (for (v <- 0 until n if rnd.nextDouble() < 0.8) yield (hub, v, 1.0)) ++
        (for (i <- block until block + 8; j <- i + 1 until block + 8 if rnd.nextDouble() < 0.7)
          yield (i, j, 1.0)) ++
        Seq.fill(n / 2)((rnd.nextInt(n), rnd.nextInt(n), 1.0))
      LocalGraph.fromEdges(n, edges)
    }

  /** Per-vertex k-clique counts of G[active] and their total, by extending
    * every increasing vertex sequence one mutually adjacent vertex at a time.
    */
  private def bruteCliques(g: LocalGraph, k: Int, active: Set[Int]): (Array[Int], Long) = {
    val per = new Array[Int](g.n)
    var total = 0L
    def extend(clique: List[Int], from: Int): Unit =
      if (clique.length == k) { total += 1; clique.foreach(per(_) += 1) }
      else for (v <- from until g.n if active(v) && clique.forall(g.hasEdge(_, v)))
        extend(v :: clique, v + 1)
    extend(Nil, 0)
    (per, total)
  }

  private def assertCounts(st: MetricState, g: LocalGraph, k: Int, active: Set[Int], what: String): Unit = {
    val (per, total) = bruteCliques(g, k, active)
    assert(st.f == total.toDouble, s"$what: f")
    (0 until g.n).foreach(v => assert(st.w(v) == (if (active(v)) per(v) else 0).toDouble, s"$what: w($v)"))
  }

  test("property: initial clique counts match brute force on tied, hub-heavy graphs") {
    forAll(genTiedGraph, n = 20) { g =>
      for (m <- Metric.cliqueMetrics; t <- Seq(1, 4))
        assertCounts(new CliqueMetricState(g, m.k, t), g, m.k, (0 until g.n).toSet, s"${m.name} t=$t")
    }
  }

  test("property: removeBatch matches brute force after each batch, identically at 1 and 4 threads") {
    forAll(genTiedGraph, n = 15) { g =>
      for (m <- Metric.cliqueMetrics) {
        val st1 = new CliqueMetricState(g, m.k, 1)
        val st4 = new CliqueMetricState(g, m.k, 4)
        var active = (0 until g.n).toSet
        val rnd = new scala.util.Random(g.n * 13L + g.m)
        while (active.nonEmpty) {
          // a random active vertex with some of its active neighbors (so
          // batch members share cliques), plus random others
          val u = active.toSeq(rnd.nextInt(active.size))
          val size = 1 + rnd.nextInt(math.max(1, active.size / 2))
          val batch = (Seq(u) ++ st1.activeNeighbors(u).filter(_ => rnd.nextBoolean()) ++
            rnd.shuffle(active.toSeq)).distinct.take(size).toArray
          st1.removeBatch(batch, 1)
          st4.removeBatch(batch, 4)
          active --= batch
          assertCounts(st1, g, m.k, active, s"${m.name} t=1")
          assert(st4.f == st1.f && (0 until g.n).forall(v => st4.w(v) == st1.w(v)), s"${m.name} t=4")
          assert(st4.activeSet.sameElements(st1.activeSet) && st1.activeSet.sameElements(active.toSeq.sorted))
        }
      }
    }
  }

  test("clique removeBatch rejects inactive and repeated vertices") {
    val st = KCliDS(4).localState(TestGraphs.cliqueWithTail(5, 2))
    assertThrows[IllegalArgumentException](st.removeBatch(Array(1, 1), 1))
    st.remove(0)
    assertThrows[IllegalArgumentException](st.removeBatch(Array(2, 0), 1))
  }

  test("Property 3.1: effective weights are non-negative for all metrics") {
    forAll(TestGraphs.genGraph(maxN = 10), n = 10) { g =>
      for (m <- Seq(DG, DW, FD)) {
        val p = m.prepare(g)
        assert(p.vw.forall(_ >= 0.0), m.name)
        assert(p.canonicalEdges.forall(_._3 >= 0.0), m.name)
      }
    }
  }
}
