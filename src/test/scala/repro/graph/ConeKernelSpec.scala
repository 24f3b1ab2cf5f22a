package repro.graph

import scala.util.Random
import repro.SparkSpec
import repro.graphgen.{EdgeList, GraphGen}
import repro.testutil.TestGraphs

/** The cone sweep (`LocalBrandes.Workspace.dependencyOn`) against the
  * full-sweep reference (`LocalBrandes.dependency`). The two must agree to
  * the bit, so every comparison here is `==`, never a tolerance.
  */
class ConeKernelSpec extends SparkSpec {

  /** Path 0-1-2-3 (1 and 2 are cut vertices, 3 is a leaf), triangle 4-5-6,
    * and the isolated vertex 7.
    */
  private val disconnected = EdgeList(8, Vector((0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6)))

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
}
