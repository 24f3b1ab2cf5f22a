package perfbench

import java.nio.file.{Files, Paths}
import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import org.scalatest.funsuite.AnyFunSuite

/** The benchmark at toy sizes: every named metric comes out with its unit,
  * and a wrong answer is counted as failed rather than passing.
  */
class HarnessSpec extends AnyFunSuite {

  private def run(workload: String, corrupt: Boolean = false): Outcome =
    Harness.run(Config(workload, seed = 7L, seconds = 0.5, trace = true, toy = true,
      corruptReference = corrupt))

  private def chainMetrics(w: String): Seq[String] =
    Workload(w, toy = true).sampler.toSeq.flatMap(p => Metrics.chainLayer.map(k => s"$p.${k._1}"))

  for (w <- Workload.names) {
    test(s"$w emits every named metric with its unit and passes its gates") {
      val out = run(w)
      assert(out.failures.isEmpty, out.failures)
      assert(out.attempted >= Workload(w, toy = true).minQueries)
      assert(out.endToEnd.map(_._1) == Metrics.endToEnd.map(_._1))
      assert(out.perLayer.map(_._1) == Metrics.perLayer.map(_._1) ++ chainMetrics(w))
      for ((k, m) <- out.endToEnd ++ out.perLayer) {
        assert(m.unit == Metrics.unitOf(k), k)
        assert(m.value.isFinite && m.samples > 0, s"$k = $m")
      }
      val e2e = out.endToEnd.toMap
      assert(e2e("failed_frac").value == 0.0)
      assert(e2e("query_s.p50").value > 0.0 && e2e("setup_s").value > 0.0)
      assert(out.spans.exists(_.name == "spark"))
    }

    test(s"$w counts a corrupted reference in failed_frac") {
      val out = run(w, corrupt = true)
      assert(out.failed > 0)
      assert(out.endToEnd.toMap.apply("failed_frac").value == out.failed.toDouble / out.attempted)
      assert(!Main.result(Config(w, 7L, 0.5, trace = false), out).fields.contains("correct" -> true))
    }
  }

  test("the result lines carry exactly the metrics BENCHMARK.json names, with their units") {
    val spec = parse(Files.readString(Paths.get("..", "BENCHMARK.json")))
    def str(v: JValue): String = v match {
      case JString(s) => s
      case other      => fail(s"expected a string, got $other")
    }
    def declared(key: String): Seq[(String, String)] =
      (spec \ key).children.map(m => str(m \ "name") -> str(m \ "unit"))
    assert(declared("end_to_end") == Metrics.gated.map(k => k -> Metrics.unitOf(k)))
    assert(declared("per_layer") == Metrics.perLayer)
    val gated = (spec \ "workloads").children.map(w => str(w \ "name"))
    assert(gated.nonEmpty && gated.forall(Workload.names.contains), gated)
  }

  test("the command line rejects unknown workloads and malformed options") {
    val ok = Seq("--workload", "single-ba20k", "--seed", "3", "--seconds", "2", "--trace", "1")
    assert(Main.parse(ok) == Config("single-ba20k", 3L, 2.0, trace = true))
    intercept[IllegalArgumentException](Main.parse(ok.updated(1, "nope")))
    intercept[IllegalArgumentException](Main.parse(ok.updated(7, "2")))
    intercept[IllegalArgumentException](Main.parse(ok.take(6)))
  }

  test("the tail is the highest percentile with ten samples beyond it") {
    val xs = (1 to 200).map(_.toDouble)
    assert(Stats.tail(xs) == ((190.0, 95.0, 10)))
    assert(Stats.tail(xs.take(8)) == ((8.0, 100.0, 0)))
  }
}
