package repro.graph

import scala.util.Random
import org.scalacheck.{Gen, Prop, Test => Check}
import repro.SparkSpec
import repro.graphgen.{EdgeList, GraphGen}
import repro.testutil.TestGraphs

/** The cone sweep (`LocalBrandes.Workspace.dependencyOn`) and the support
  * test (`Workspace.needsSweep`) against the full-sweep reference
  * (`LocalBrandes.dependency`). The two must agree to the bit, so every
  * comparison here is `==`, never a tolerance.
  */
class ConeKernelSpec extends SparkSpec {

  private val disconnected = TestGraphs.disconnected8

  private val graphs: Seq[(String, EdgeList)] = TestGraphs.battery ++ Seq(
    "ba200" -> GraphGen.barabasiAlbert(200, 3, 7L),
    "er150" -> GraphGen.erdosRenyi(150, 0.04, 9L),
    "ws150" -> GraphGen.wattsStrogatz(150, 6, 0.1, 4L),
    "disconnected8" -> disconnected,
  )

  test("cone sweep has the bits of the full sweep for every (s, r), one workspace, shuffled") {
    val ws = new LocalBrandes.Workspace(graphs.map(_._2.n).max)
    val rnd = new Random(5L)
    val calls = rnd.shuffle(graphs.flatMap { case (name, el) =>
      for (s <- 0 until el.n; r <- 0 until el.n) yield (name, s, r)
    })
    val csr = graphs.map { case (name, el) => name -> CSRGraph.fromEdges(el) }.toMap
    val full = csr.map { case (name, g) => name -> Array.tabulate(g.n)(LocalBrandes.dependency(g, _)) }
    calls.foreach { case (name, s, r) =>
      val got = ws.dependencyOn(csr(name), s, r)
      val want = if (s == r) 0.0 else full(name)(s)(r)
      assert(got == want, s"$name delta_$s($r): cone $got, full sweep $want")
    }
  }

  test("cone sweep edge cases: s == r, unreachable r, leaf r, cut-vertex r") {
    val g = CSRGraph.fromEdges(disconnected)
    val ws = new LocalBrandes.Workspace(g.n)
    assert(ws.dependencyOn(g, 2, 2) == 0.0)
    assert(ws.dependencyOn(g, 0, 5) == 0.0) // other component
    assert(ws.dependencyOn(g, 7, 0) == 0.0) // isolated source
    assert(ws.dependencyOn(g, 0, 3) == 0.0) // leaf
    assert(ws.dependencyOn(g, 0, 1) == 2.0) // cut vertex: pairs (0,2), (0,3)
    assert(ws.dependencyOn(g, 0, 2) == 1.0) // cut vertex: pair (0,3)
    assert(ws.dependencyOn(g, 4, 5) == 0.0) // triangle: every pair adjacent
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(200, 3, 7L))
    val wsBa = new LocalBrandes.Workspace(ba.n)
    val leaf = (0 until ba.n).minBy(ba.degree)
    (0 until ba.n).foreach(s => assert(wsBa.dependencyOn(ba, s, leaf) == LocalBrandes.dependencyOn(ba, s, leaf)))
  }

  test("dependencyColumn runs the cone sweep and matches the full sweep bit for bit") {
    val g = CSRGraph.fromEdges(GraphGen.wattsStrogatz(150, 6, 0.1, 4L))
    for (r <- Seq(0, 42, 149)) {
      val col = LocalBrandes.dependencyColumn(g, r)
      (0 until g.n).foreach(v => assert(col(v) == LocalBrandes.dependencyOn(g, v, r), s"delta_$v($r)"))
    }
  }

  test("dependenciesOnTarget has the bits of the local cone sweep with 1 and with many partitions") {
    val g = CSRGraph.fromEdges(GraphGen.barabasiAlbert(200, 3, 7L))
    val ws = new LocalBrandes.Workspace(g.n)
    val hub = (0 until g.n).maxBy(g.degree)
    for (r <- Seq(hub, 100); parts <- Seq(1, 16)) {
      val out = SparkBrandes.dependenciesOnTarget(spark, g, 0 until g.n, r, numPartitions = parts)
      (0 until g.n).foreach(v =>
        assert(out(v) == ws.dependencyOn(g, v, r), s"delta_$v($r) with $parts partitions"))
    }
  }

  test("full sweep through a reused workspace has the bits of a fresh dependency vector") {
    val g = CSRGraph.fromEdges(GraphGen.erdosRenyi(150, 0.04, 9L))
    val ws = new LocalBrandes.Workspace(g.n)
    val targets = Array(0, 7, 77, 149)
    new Random(3L).shuffle((0 until g.n).toVector).foreach { s =>
      val d = LocalBrandes.dependency(g, s)
      ws.sweep(g, s)(swept => assert(swept.sameElements(d), s"source $s"))
      assert(ws.dependenciesOn(g, s, targets).sameElements(targets.map(d(_))), s"source $s")
    }
  }

  test("cone sweep rejects a target or source outside [0, n), naming it and n") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val ws = new LocalBrandes.Workspace(g.n)
    for (r <- Seq(-1, g.n)) {
      val e = intercept[IllegalArgumentException](ws.dependencyOn(g, 0, r))
      assert(e.getMessage.contains(s"target r = $r") && e.getMessage.contains(s"n = ${g.n}"))
    }
    intercept[IllegalArgumentException](ws.dependencyOn(g, g.n, 0))
    // a failed call leaves the workspace usable
    assert(ws.dependencyOn(g, 5, 0) == LocalBrandes.dependencyOn(g, 5, 0))
  }

  test("a workspace rejects a graph larger than it was sized for") {
    val ws = new LocalBrandes.Workspace(10)
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    intercept[IllegalArgumentException](ws.dependencyOn(g, 0, 1))
  }

  test("dependenciesOnTarget rejects a target outside [0, n)") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    for (r <- Seq(-1, g.n)) {
      val e = intercept[IllegalArgumentException](
        SparkBrandes.dependenciesOnTarget(spark, g, Seq(0, 1), r))
      assert(e.getMessage.contains(s"target r = $r") && e.getMessage.contains(s"n = ${g.n}"))
    }
  }

  test("dependenciesOnTargets rejects a target outside [0, n)") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val e = intercept[IllegalArgumentException](
      SparkBrandes.dependenciesOnTargets(spark, g, Seq(0, 1), Array(0, g.n)))
    assert(e.getMessage.contains(s"target r = ${g.n}") && e.getMessage.contains(s"n = ${g.n}"))
  }

  test("non-finite delta fails loudly: grid(520,520) overflows sigma, grid(500,500) does not") {
    val big = CSRGraph.fromEdges(GraphGen.grid(520, 520))
    val centre = 260 * 520 + 260
    val e = intercept[ArithmeticException](LocalBrandes.dependency(big, 0))
    assert(e.getMessage.contains("delta_0"))
    val ws = new LocalBrandes.Workspace(big.n)
    for (r <- Seq(centre, 1)) {
      val c = intercept[ArithmeticException](ws.dependencyOn(big, 0, r))
      assert(c.getMessage.contains(s"delta_0($r)"))
    }
    val ok = CSRGraph.fromEdges(GraphGen.grid(500, 500))
    val d = LocalBrandes.dependency(ok, 0)
    assert(d.forall(java.lang.Double.isFinite))
    val okWs = new LocalBrandes.Workspace(ok.n)
    assert(okWs.dependencyOn(ok, 0, 250 * 500 + 250) == d(250 * 500 + 250))
  }

  test("support test decides delta > 0 exactly for every (s, r), one workspace, shuffled") {
    val ws = new LocalBrandes.Workspace(graphs.map(_._2.n).max)
    val csr = graphs.map { case (name, el) => name -> CSRGraph.fromEdges(el) }.toMap
    val full = csr.map { case (name, g) => name -> Array.tabulate(g.n)(LocalBrandes.dependency(g, _)) }
    new Random(8L).shuffle(csr.toSeq.flatMap { case (name, g) => (0 until g.n).map(name -> _) })
      .foreach { case (name, r) =>
        val g = csr(name)
        val live = ws.needsSweep(g, r, Array.range(0, g.n))
        (0 until g.n).foreach(s => assert(live(s) == (full(name)(s)(r) > 0.0),
          s"$name s=$s r=$r: test ${live(s)}, delta ${full(name)(s)(r)}"))
      }
    // disconnected8: s == r, another component and the isolated vertex are all ruled out
    val g = CSRGraph.fromEdges(disconnected)
    assert(ws.needsSweep(g, 1, Array(1, 0, 4, 7, 3, 2)).sameElements(Array(false, true, false, false, true, true)))
    assert(ws.needsSweep(g, 7, Array(0, 7)).sameElements(Array(false, false)))
  }

  test("support test over many batches of N(r): star(300) centre and a BA hub, delta exact") {
    val star = CSRGraph.fromEdges(GraphGen.star(300))
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(3000, 3, 7L))
    val hub = (0 until ba.n).maxBy(ba.degree)
    assert(star.degree(0) > 128 && ba.degree(hub) > 128, "need deg(r) > 128: at least 3 batches")
    for ((g, r) <- Seq(star -> 0, ba -> hub, ba -> (0 until ba.n).minBy(ba.degree))) {
      val ws = new LocalBrandes.Workspace(g.n)
      val all = Array.range(0, g.n)
      val want = all.map(LocalBrandes.dependencyOn(g, _, r))
      val live = ws.needsSweep(g, r, all)
      all.foreach(s => assert(live(s) == (want(s) > 0.0), s"s=$s r=$r"))
      assert(ws.dependenciesOnTarget(g, all, r).sameElements(want), s"r=$r")
    }
  }

  test("support test cost cap: few undecided sources and many batches fall back to the cone sweep") {
    // K_201 without the edges (1,2) and (3,200); r = 0 has 200 neighbours, 4 batches.
    // delta_s(0) > 0 only for s = 1, 2 (each other's successor, batch 0), 200 (successor 3,
    // batch 0) and 3 (successor 200, batch 3); every other source has delta 0.
    val gone = Set((1, 2), (3, 200))
    val g = CSRGraph.fromEdges(EdgeList(201,
      (for (u <- 0 until 201; v <- u + 1 until 201 if !gone((u, v))) yield (u, v)).toVector))
    val ws = new LocalBrandes.Workspace(g.n)
    val want = Array.tabulate(g.n)(LocalBrandes.dependencyOn(g, _, 0))
    assert((0 until g.n).filter(want(_) > 0.0) == Seq(1, 2, 3, 200))
    // Run to the end, the test rules out every zero source.
    assert(ws.needsSweep(g, 0, Array.range(0, g.n)).sameElements(want.map(_ > 0.0)))
    // 2 sources, 4 batches: the test stops at once; both are swept.
    assert(ws.needsSweep(g, 0, Array(4, 5)).sameElements(Array(true, true)))
    // 5 sources > 4 batches: batch 0 proves 1, 2 and 200; then 2 undecided <= 3 batches
    // left, so 3 (delta > 0) and 4 (delta = 0) are swept.
    val few = Array(1, 2, 200, 3, 4)
    assert(ws.needsSweep(g, 0, few).sameElements(Array(true, true, true, true, true)))
    for (sources <- Seq(few, Array(4, 5), Array.range(0, g.n)))
      assert(ws.dependenciesOnTarget(g, sources, 0).sameElements(sources.map(want(_))))
  }

  test("property: cone sweep and support test equal the full sweep on random ER/BA graphs") {
    def union(a: EdgeList, b: EdgeList): EdgeList =
      EdgeList(a.n + b.n, a.edges ++ b.edges.map { case (u, v) => (u + a.n, v + a.n) })
    val graphGen: Gen[EdgeList] = for {
      n <- Gen.choose(3, 40)
      seed <- Gen.choose(0L, 1000000L)
      p <- Gen.choose(0.0, 0.3)
      m <- Gen.choose(1, 3)
      ba <- Gen.oneOf(true, false)
      parts <- Gen.choose(1, 3) // 2: plus another component, 3: plus an isolated vertex too
    } yield {
      val main = if (ba && n > m + 1) GraphGen.barabasiAlbert(n, m, seed) else GraphGen.erdosRenyi(n, p, seed)
      val other = if (parts >= 2) union(main, GraphGen.erdosRenyi(n / 2 + 2, p, seed + 1)) else main
      if (parts == 3) EdgeList(other.n + 1, other.edges) else other
    }
    val caseGen = for {
      el <- graphGen
      r <- Gen.choose(0, el.n - 1)
      sources <- Gen.listOf(Gen.choose(0, el.n - 1))
    } yield (el, r, sources.toArray)
    val ws = new LocalBrandes.Workspace(200)
    val prop = Prop.forAll(caseGen) { case (el, r, sources) =>
      val g = CSRGraph.fromEdges(el)
      val want = Array.tabulate(g.n)(LocalBrandes.dependencyOn(g, _, r))
      val live = ws.needsSweep(g, r, sources)
      (0 until g.n).forall(s => ws.dependencyOn(g, s, r) == want(s)) &&
        ws.dependenciesOnTarget(g, sources, r).sameElements(sources.map(want(_))) &&
        sources.indices.forall(i => live(i) || want(sources(i)) == 0.0)
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(11L), prop)
    assert(result.passed, result.status.toString)
  }

  test("support test rejects a target or source outside [0, n)") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val ws = new LocalBrandes.Workspace(g.n)
    val e = intercept[IllegalArgumentException](ws.needsSweep(g, g.n, Array(0)))
    assert(e.getMessage.contains(s"target r = ${g.n}"))
    intercept[IllegalArgumentException](ws.needsSweep(g, 0, Array(1, -1)))
    assert(ws.needsSweep(g, 0, Array.empty[Int]).isEmpty)
  }
}
