package repro.core

import repro.SparkSpec
import repro.graph.{CSRGraph, LocalBrandes}
import repro.graphgen.GraphGen

class MHJointSpec extends SparkSpec {

  private val karate = CSRGraph.fromEdges(GraphGen.karateClub)
  private val karateBc = LocalBrandes.bc(karate)

  test("drawProposals deterministic, in range on both coordinates") {
    val (r0, v0, pr, pv) = MHJoint.drawProposals(4, 34, 300, 7L)
    val (r0b, v0b, prb, pvb) = MHJoint.drawProposals(4, 34, 300, 7L)
    assert(r0 == r0b && v0 == v0b && pr.sameElements(prb) && pv.sameElements(pvb))
    assert(r0 >= 0 && r0 < 4 && v0 >= 0 && v0 < 34)
    assert(pr.forall(x => x >= 0 && x < 4) && pv.forall(x => x >= 0 && x < 34))
  }

  test("walk mechanics: rejected steps repeat both coordinates") {
    val R = Array(0, 33, 2)
    val chain = MHJoint.run(karate, R, 300, 3L)
    for (t <- 1 to 300) {
      if (chain.accepted(t - 1)) {
        assert(chain.statesR(t) == chain.propsR(t - 1))
        assert(chain.statesV(t) == chain.propsV(t - 1))
      } else {
        assert(chain.statesR(t) == chain.statesR(t - 1))
        assert(chain.statesV(t) == chain.statesV(t - 1))
      }
    }
  }

  test("run and runSpark produce bit-identical joint chains") {
    val R = Array(0, 33)
    val loc = MHJoint.run(karate, R, 400, 11L)
    val spk = MHJoint.runSpark(spark, karate, R, 400, 11L)
    assert(loc.statesR.sameElements(spk.statesR))
    assert(loc.statesV.sameElements(spk.statesV))
    assert(loc.accepted.sameElements(spk.accepted))
    assert(loc.delta.keySet == spk.delta.keySet)
    loc.delta.foreach { case (v, d) => assert(d.sameElements(spk.delta(v))) }
  }

  test("delta table is exact: delta(v)(k) = local dependencyOn(v, R(k))") {
    val R = Array(0, 33, 5)
    val chain = MHJoint.run(karate, R, 200, 13L)
    chain.delta.foreach { case (v, arr) =>
      R.zipWithIndex.foreach { case (r, k) =>
        assert(arr(k) == LocalBrandes.dependencyOn(karate, v, r), s"delta_{$v}($r)")
      }
    }
  }

  test("sampleIndices partitions 0..T across the members of R") {
    val R = Array(0, 33, 2)
    val chain = MHJoint.run(karate, R, 500, 17L)
    val all = R.indices.flatMap(chain.sampleIndices).sorted
    assert(all == (0 to 500))
  }

  test("ratioEstimate converges to the exact BC ratio on karate (hubs)") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 30000, 19L)
    val est = chain.ratioEstimate(0, 1)
    val exact = karateBc(0) / karateBc(33)
    assert(math.abs(est - exact) / exact < 0.15,
      s"ratio est=$est exact=$exact")
    // the reciprocal pair is consistent by construction
    assert(math.abs(chain.ratioEstimate(1, 0) - 1.0 / est) < 1e-12)
  }

  test("ratioEstimate converges on a 4-vertex probe set (all pairs within 25%)") {
    val R = Array(0, 33, 2, 31)
    val chain = MHJoint.run(karate, R, 60000, 23L)
    for (i <- R.indices; j <- R.indices if i != j) {
      val est = chain.ratioEstimate(i, j)
      val exact = karateBc(R(i)) / karateBc(R(j))
      assert(math.abs(est - exact) / exact < 0.25,
        s"pair (${R(i)},${R(j)}): est=$est exact=$exact")
    }
  }

  test("relativeEstimate converges to the Eq.19 expectation, not Eq.23 — documented") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 40000, 29L)
    val est = chain.relativeEstimate(0, 1)
    val eq19 = Estimators.exactEq19Expectation(karate, 0, 33)
    assert(math.abs(est - eq19) < 0.05, s"est=$est eq19=$eq19")
  }

  test("conditional v-distribution given r=r_j approaches pi_{r_j}") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 40000, 31L)
    val idx = chain.sampleIndices(0)
    val states = idx.map(chain.statesV).toArray
    val tv = Estimators.tvDistance(
      Estimators.empiricalDist(states, karate.n), Estimators.exactPi(karate, 0))
    assert(tv < 0.15, s"TV=$tv")
  }

  test("marginal r-distribution weights r_j by BC(r_j) (Eq. 18)") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 40000, 37L)
    val frac0 = chain.sampleIndices(0).size.toDouble / (chain.T + 1)
    val expected = karateBc(0) / (karateBc(0) + karateBc(33))
    assert(math.abs(frac0 - expected) < 0.1, s"frac=$frac0 expected=$expected")
  }

  test("relativeEstimate is NaN for an r never visited (empty S(j))") {
    // R includes a zero-BC vertex of a star: it is never accepted after the
    // chain enters the support, so with a center-start it may appear, but a
    // leaf of a complete graph has BC 0 everywhere: use a 2-set where one
    // member can never host samples once the chain moves away.
    val star = CSRGraph.fromEdges(GraphGen.star(8))
    val R = Array(0, 1) // center (high BC), leaf (BC 0)
    val chain = MHJoint.run(star, R, 5000, 41L)
    // all stationary samples sit on r=center; leaf samples are at most transient
    assert(chain.sampleIndices(0).size > 4500)
  }

  test("acceptance rate within (0,1] and deterministic") {
    val R = Array(0, 2)
    val a = MHJoint.run(karate, R, 1000, 43L)
    val b = MHJoint.run(karate, R, 1000, 43L)
    assert(a.acceptanceRate == b.acceptanceRate)
    assert(a.acceptanceRate > 0.0 && a.acceptanceRate <= 1.0)
  }

  test("run and runSpark reject an empty probe set") {
    intercept[IllegalArgumentException](MHJoint.run(karate, Array.empty[Int], 10, 1L))
    intercept[IllegalArgumentException](MHJoint.runSpark(spark, karate, Array.empty[Int], 10, 1L))
  }

  test("run and runSpark reject duplicate probes") {
    val e = intercept[IllegalArgumentException](MHJoint.run(karate, Array(0, 33, 0), 10, 1L))
    assert(e.getMessage.contains("duplicate"))
    intercept[IllegalArgumentException](MHJoint.runSpark(spark, karate, Array(0, 33, 0), 10, 1L))
  }

  test("run and runSpark reject a probe outside [0, n), naming it and n") {
    for (r <- Seq(-1, karate.n)) {
      val e = intercept[IllegalArgumentException](MHJoint.run(karate, Array(0, r), 10, 1L))
      assert(e.getMessage.contains(s"probe r = $r") && e.getMessage.contains(s"n = ${karate.n}"))
      intercept[IllegalArgumentException](MHJoint.runSpark(spark, karate, Array(0, r), 10, 1L))
    }
  }

  test("run and runSpark reject a negative chain length") {
    intercept[IllegalArgumentException](MHJoint.run(karate, Array(0, 33), -1, 1L))
    intercept[IllegalArgumentException](MHJoint.runSpark(spark, karate, Array(0, 33), -1, 1L))
  }

  test("relativeEstimate and ratioEstimate reject a j outside [0, |R|), naming it and |R|") {
    val chain = MHJoint.run(karate, Array(0, 33), 200, 5L)
    for (j <- Seq(-1, 2)) {
      val e = intercept[IllegalArgumentException](chain.relativeEstimate(0, j))
      assert(e.getMessage.contains(s"j = $j") && e.getMessage.contains("|R| = 2"))
      intercept[IllegalArgumentException](chain.ratioEstimate(0, j))
    }
  }

  test("relativeEstimate and ratioEstimate reject an i outside [0, |R|), naming it and |R|") {
    val chain = MHJoint.run(karate, Array(0, 33), 200, 5L)
    for (i <- Seq(-1, 2)) {
      val e = intercept[IllegalArgumentException](chain.relativeEstimate(i, 0))
      assert(e.getMessage.contains(s"i = $i") && e.getMessage.contains("|R| = 2"))
      intercept[IllegalArgumentException](chain.ratioEstimate(i, 1))
    }
  }

  test("ratioEstimate needs i != j, so a one-probe chain has no ratio") {
    val chain = MHJoint.run(karate, Array(0, 33), 200, 5L)
    val e = intercept[IllegalArgumentException](chain.ratioEstimate(1, 1))
    assert(e.getMessage.contains("i = j = 1"))
    val single = MHJoint.run(karate, Array(0), 200, 5L)
    intercept[IllegalArgumentException](single.ratioEstimate(0, 0))
  }
}
