package repro.core

import repro.SparkSpec
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}
import repro.graphgen.GraphGen

class MHSingleSpec extends SparkSpec {

  private val karate = CSRGraph.fromEdges(GraphGen.karateClub)
  private val karateBc = LocalBrandes.bc(karate)

  test("drawProposals is deterministic and in range") {
    val (v0a, pa) = MHSingle.drawProposals(34, 500, 7L)
    val (v0b, pb) = MHSingle.drawProposals(34, 500, 7L)
    assert(v0a == v0b && pa.sameElements(pb))
    assert(v0a >= 0 && v0a < 34)
    assert(pa.forall(p => p >= 0 && p < 34))
    val (_, pc) = MHSingle.drawProposals(34, 500, 8L)
    assert(!pa.sameElements(pc))
  }

  test("walk: chain starts at v0; rejected steps repeat the state") {
    val chain = MHSingle.run(karate, 0, 200, 3L)
    assert(chain.states.length == 201 && chain.accepted.length == 200)
    for (t <- 1 to 200) {
      if (chain.accepted(t - 1)) assert(chain.states(t) == chain.proposals(t - 1))
      else assert(chain.states(t) == chain.states(t - 1))
    }
  }

  test("chain is a pure function of (graph, r, T, seed)") {
    val a = MHSingle.run(karate, 33, 300, 11L)
    val b = MHSingle.run(karate, 33, 300, 11L)
    assert(a.states.sameElements(b.states) && a.accepted.sameElements(b.accepted))
  }

  test("run and runSpark produce bit-identical chains") {
    val loc = MHSingle.run(karate, 0, 400, 21L)
    val spk = MHSingle.runSpark(spark, karate, 0, 400, 21L)
    assert(loc.states.sameElements(spk.states))
    assert(loc.accepted.sameElements(spk.accepted))
    assert(loc.delta == spk.delta)
  }

  test("delta map is exact for every touched vertex") {
    val chain = MHSingle.run(karate, 0, 150, 5L)
    chain.delta.foreach { case (v, d) =>
      assert(d == LocalBrandes.dependencyOn(karate, v, 0), s"delta($v)")
    }
  }

  test("zero-delta proposals are never accepted from a positive-delta state") {
    // star: delta_{leaf.}(center) = n-2 > 0, delta_{center.}(center) = 0
    val star = CSRGraph.fromEdges(GraphGen.star(10))
    val chain = MHSingle.run(star, 0, 2000, 13L)
    for (t <- 1 to 2000 if chain.delta(chain.states(t - 1)) > 0 && chain.proposals(t - 1) == 0)
      assert(!chain.accepted(t - 1), s"accepted the zero-delta center at t=$t")
  }

  test("chain enters supp(delta) and never leaves it") {
    val star = CSRGraph.fromEdges(GraphGen.star(10))
    val chain = MHSingle.run(star, 0, 2000, 13L)
    val firstIn = chain.states.indexWhere(v => chain.delta(v) > 0)
    assert(firstIn >= 0)
    (firstIn until chain.states.length).foreach(t =>
      assert(chain.delta(chain.states(t)) > 0.0, s"left support at t=$t"))
  }

  test("on star with r=center, every leaf-to-leaf move is accepted (pi uniform)") {
    val star = CSRGraph.fromEdges(GraphGen.star(10))
    val chain = MHSingle.run(star, 0, 1000, 17L)
    for (t <- 1 to 1000
         if chain.delta(chain.states(t - 1)) > 0 && chain.proposals(t - 1) != 0)
      assert(chain.accepted(t - 1), s"rejected an acceptance-ratio-1 move at t=$t")
  }

  test("estimateEq7 on star converges to (n-2)/(n-1), not BC — documented bias") {
    val n = 10
    val star = CSRGraph.fromEdges(GraphGen.star(n))
    val chain = MHSingle.run(star, 0, 4000, 19L)
    val expected = (n - 2.0) / (n - 1.0) // E_pi[delta]/(n-1): all support states have delta = n-2
    assert(math.abs(chain.estimateEq7 - expected) < 0.02,
      s"eq7=${chain.estimateEq7} expected≈$expected")
    // and the true BC(center) is (n-1)(n-2) = 72 — the Eq.7 normalization gap
    assert(math.abs(chain.estimateEq7 - (n - 1.0) * (n - 2.0)) > 10)
  }

  test("estimateHarmonic on star recovers BC(center) almost exactly") {
    val n = 10
    val star = CSRGraph.fromEdges(GraphGen.star(n))
    val chain = MHSingle.run(star, 0, 4000, 23L)
    val bc = (n - 1.0) * (n - 2.0)
    assert(math.abs(chain.estimateHarmonic - bc) / bc < 0.05,
      s"harmonic=${chain.estimateHarmonic} bc=$bc")
  }

  test("estimateHarmonic converges on karate for a hub vertex") {
    val chain = MHSingle.run(karate, 0, 20000, 29L)
    val rel = math.abs(chain.estimateHarmonic - karateBc(0)) / karateBc(0)
    assert(rel < 0.2, s"relative error $rel (est=${chain.estimateHarmonic}, bc=${karateBc(0)})")
  }

  test("estimateHarmonic error shrinks with T on karate (5 seeds averaged)") {
    def meanErr(t: Int): Double =
      (1 to 5).map { s =>
        val c = MHSingle.run(karate, 0, t, 100L + s)
        math.abs(c.estimateHarmonic - karateBc(0)) / karateBc(0)
      }.sum / 5
    assert(meanErr(8000) < meanErr(200),
      "mean relative error should decrease from T=200 to T=8000")
  }

  test("empirical state distribution approaches exact pi (TV decreases)") {
    val pi = Estimators.exactPi(karate, 0)
    def tv(t: Int): Double = {
      val chain = MHSingle.run(karate, 0, t, 31L)
      Estimators.tvDistance(Estimators.empiricalDist(chain.states, karate.n), pi)
    }
    val (tvSmall, tvBig) = (tv(200), tv(20000))
    assert(tvBig < tvSmall, s"TV should shrink: $tvBig vs $tvSmall")
    assert(tvBig < 0.1, s"TV at T=20000 should be small, got $tvBig")
  }

  test("acceptance rate is in (0,1) on karate and 1 when all deltas are equal") {
    val chain = MHSingle.run(karate, 0, 2000, 37L)
    assert(chain.acceptanceRate > 0.0 && chain.acceptanceRate < 1.0)
    // complete graph: every delta is 0 -> ratio convention 1 -> always accept
    val kg = CSRGraph.fromEdges(GraphGen.complete(7))
    assert(MHSingle.run(kg, 0, 500, 37L).acceptanceRate == 1.0)
  }

  test("walk escapes an initial zero-delta state") {
    val star = CSRGraph.fromEdges(GraphGen.star(6))
    // start the chain at the center (delta = 0); first non-center proposal accepted
    val (_, props) = MHSingle.drawProposals(6, 100, 41L)
    val chain = MHSingle.walk(0, 6, 41L, v0 = 0, props,
      v => LocalBrandes.dependencyOn(star, v, 0))
    val firstLeafProp = props.indexWhere(_ != 0)
    assert(chain.accepted(firstLeafProp))
    assert(chain.states(firstLeafProp + 1) == props(firstLeafProp))
  }

  test("estimateHarmonic returns 0 when BC(r)=0 (complete graph)") {
    val g = CSRGraph.fromEdges(GraphGen.complete(6))
    val chain = MHSingle.run(g, 0, 500, 43L)
    assert(chain.estimateHarmonic == 0.0)
    assert(chain.estimateEq7 == 0.0)
  }

  test("run and runSpark reject a target outside [0, n), naming it and n") {
    for (r <- Seq(-1, karate.n)) {
      val loc = intercept[IllegalArgumentException](MHSingle.run(karate, r, 10, 1L))
      assert(loc.getMessage.contains(s"target r = $r") && loc.getMessage.contains(s"n = ${karate.n}"))
      val spk = intercept[IllegalArgumentException](MHSingle.runSpark(spark, karate, r, 10, 1L))
      assert(spk.getMessage.contains(s"target r = $r") && spk.getMessage.contains(s"n = ${karate.n}"))
    }
  }

  test("run and runSpark reject a negative chain length; T = 0 is a one-state chain") {
    intercept[IllegalArgumentException](MHSingle.run(karate, 0, -1, 1L))
    intercept[IllegalArgumentException](MHSingle.runSpark(spark, karate, 0, -1, 1L))
    val c = MHSingle.run(karate, 0, 0, 1L)
    assert(c.states.length == 1 && c.T == 0)
  }

  test("on a BA leaf target (mostly zero delta) run and runSpark agree bit for bit and delta is exact") {
    val g = CSRGraph.fromEdges(GraphGen.barabasiAlbert(500, 2, 3L))
    val leaf = (0 until g.n).minBy(g.degree)
    val column = LocalBrandes.dependencyColumn(g, leaf)
    assert(column.count(_ == 0.0) > g.n / 2, "the target should have delta = 0 for most sources")
    val loc = MHSingle.run(g, leaf, 600, 47L)
    val spk = MHSingle.runSpark(spark, g, leaf, 600, 47L)
    assert(loc.states.sameElements(spk.states) && loc.accepted.sameElements(spk.accepted))
    assert(loc.delta == spk.delta)
    assert(loc.delta.size == (loc.states(0) +: loc.proposals).distinct.length)
    assert(loc.delta.values.exists(_ == 0.0) && loc.delta.values.exists(_ > 0.0))
    loc.delta.foreach { case (v, d) =>
      assert(d == LocalBrandes.dependencyOn(g, v, leaf), s"delta_$v($leaf)")
    }
  }

  test("dependenciesOnTarget on a BC = 0 target gives 0.0 per requested source and runs no job") {
    val star = CSRGraph.fromEdges(GraphGen.star(50))
    val sc = spark.sparkContext
    sc.setJobGroup("zero-bc-target", "every source ruled out by the support test")
    val out = try SparkBrandes.dependenciesOnTarget(spark, star, Seq(3, 0, 1, 3, 49), 1)
      finally sc.clearJobGroup()
    assert(out == Map(3 -> 0.0, 0 -> 0.0, 1 -> 0.0, 49 -> 0.0))
    assert(sc.statusTracker.getJobIdsForGroup("zero-bc-target").isEmpty)
    val chain = MHSingle.runSpark(spark, star, 1, 200, 53L)
    assert(chain.acceptanceRate == 1.0 && chain.estimateHarmonic == 0.0)
  }
}
