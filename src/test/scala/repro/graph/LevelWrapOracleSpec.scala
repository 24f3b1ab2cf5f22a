package repro.graph

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.{EdgeList, GraphGen}
import repro.testutil.TestGraphs

/** The kernel keeps `level mod 3` per vertex, not the distance, and both
  * sweeps share that encoding, so comparing the cone sweep with the full
  * sweep cannot catch a level error they make together. Here every sweep is
  * checked against the naive oracles of [[TestGraphs]] (Floyd–Warshall
  * distances, DP path counts, definitional δ and BC), on graphs whose BFS
  * levels wrap mod 3 many times: a long path, an odd cycle, a grid and a
  * barbell with a long bar, plus a disconnected graph. Each workspace is
  * sized to its graph, so calls alternate between the bulk reset (more than
  * n/4 vertices reached) and the per-vertex one.
  */
class LevelWrapOracleSpec extends AnyFunSuite {

  private val graphs: Seq[(String, EdgeList)] = Seq(
    "path200" -> GraphGen.path(200),
    "cycle201" -> GraphGen.cycle(201),
    "grid15x15" -> GraphGen.grid(15, 15),
    "barbell5x40" -> GraphGen.barbell(5, 40),
    "disconnected8" -> TestGraphs.disconnected8,
  )

  private final case class Oracle(el: EdgeList) {
    val g: CSRGraph = CSRGraph.fromEdges(el)
    val dist: Array[Array[Int]] = TestGraphs.naiveDistances(el)
    val sigma: Array[Array[Double]] = TestGraphs.naiveSigma(el)
    /** column(r)(s) = δ_{s•}(r) by definition. */
    lazy val column: Array[Array[Double]] =
      Array.tabulate(el.n)(TestGraphs.naiveDependencyColumn(el, dist, sigma, _))
  }

  private lazy val oracles = graphs.map { case (name, el) => name -> Oracle(el) }

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  test("spd distances and sigma equal Floyd-Warshall and the naive path counts") {
    for ((name, o) <- oracles; s <- 0 until o.g.n) {
      val (dist, sigma, order) = LocalBrandes.spd(o.g, s)
      for (t <- 0 until o.g.n) {
        val want = if (o.dist(s)(t) > o.g.n) -1 else o.dist(s)(t)
        assert(dist(t) == want, s"$name d($s,$t)")
        assert(sigma(t) == o.sigma(s)(t), s"$name sigma($s,$t)")
      }
      assert(order.length == (0 until o.g.n).count(dist(_) >= 0), s"$name order from $s")
    }
  }

  test("cone sweep equals the definitional delta for every (s, r), one workspace per graph, shuffled") {
    for ((name, o) <- oracles) {
      val ws = new LocalBrandes.Workspace(o.g.n)
      val calls = for (s <- 0 until o.g.n; r <- 0 until o.g.n) yield (s, r)
      new Random(17L).shuffle(calls).foreach { case (s, r) =>
        val got = ws.dependencyOn(o.g, s, r)
        assert(close(got, o.column(r)(s)), s"$name delta_$s($r): cone $got, naive ${o.column(r)(s)}")
      }
    }
  }

  test("support test decides delta > 0 as the definition does, for every r") {
    for ((name, o) <- oracles) {
      val ws = new LocalBrandes.Workspace(o.g.n)
      val all = Array.range(0, o.g.n)
      new Random(19L).shuffle(all.toVector).foreach { r =>
        val live = ws.needsSweep(o.g, r, all)
        all.foreach(s => assert(live(s) == (o.column(r)(s) > 0.0), s"$name s=$s r=$r"))
      }
    }
  }

  test("bc equals the definitional betweenness") {
    for ((name, o) <- oracles) {
      val want = TestGraphs.naiveBC(o.el)
      val got = LocalBrandes.bc(o.g)
      (0 until o.g.n).foreach(v => assert(close(got(v), want(v)), s"$name BC($v): ${got(v)} vs ${want(v)}"))
    }
  }
}
