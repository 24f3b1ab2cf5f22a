package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The jobs' argument checks, which run before any Spark session starts. */
class JobArgsSpec extends AnyFunSuite {

  private def rejects(parse: Array[String] => Any, args: String*)(reason: String): Unit = {
    val e = intercept[IllegalArgumentException](parse(args.toArray))
    assert(e.getMessage.contains(reason) && e.getMessage.contains("usage: "), e.getMessage)
  }

  test("RunSingleMH: reads the arguments and builds the graph") {
    val a = RunSingleMH.parse(Array("path:10", "3", "100", "7"))
    assert(a.g.n == 10 && a.r == 3 && a.T == 100 && a.seed == 7L)
    assert(RunSingleMH.parse(Array("karate", "0", "0")).seed == 42L)
  }

  test("RunSingleMH: rejects non-numeric, out-of-range and missing arguments with the usage") {
    val p = RunSingleMH.parse _
    rejects(p, "path:10", "x", "100")("r = 'x' is not an integer")
    rejects(p, "path:10", "3", "1e3")("T = '1e3' is not an integer")
    rejects(p, "path:10", "3", "100", "seed")("seed = 'seed' is not an integer")
    rejects(p, "path:10", "10", "100")("r = 10 is not a vertex: n = 10")
    rejects(p, "path:10", "-1", "100")("r = -1 is not a vertex: n = 10")
    rejects(p, "path:10", "3", "-1")("T = -1 must be >= 0")
    rejects(p, "path:10", "3")("expected 3 or 4 arguments, got 2")
    rejects(p, "path:x", "3", "100")("non-numeric")
    rejects(p, "tree:3", "3", "100")("unknown graph spec: tree:3")
  }

  test("RunJointMH: reads the arguments and builds the graph") {
    val a = RunJointMH.parse(Array("ba:50:2:7", "0,1,2", "100", "5"))
    assert(a.g.n == 50 && a.probes.sameElements(Array(0, 1, 2)) && a.T == 100 && a.seed == 5L)
  }

  test("RunJointMH: rejects bad, duplicate, out-of-range or too few probes, and a negative T") {
    val p = RunJointMH.parse _
    rejects(p, "path:10", "0,a", "100")("probe = 'a' is not an integer")
    rejects(p, "path:10", "0,", "100")("probe = '' is not an integer")
    rejects(p, "path:10", "4,4", "100")("duplicate probe")
    rejects(p, "path:10", "4", "100")("at least 2 probes")
    rejects(p, "path:10", "0,10", "100")("probe 10 is not a vertex: n = 10")
    rejects(p, "path:10", "0,1", "-5")("T = -5 must be >= 0")
    rejects(p, "path:10", "0,1", "x")("T = 'x' is not an integer")
  }

  test("RunExactBC: reads topK, defaults it to 10 and rejects a negative or non-numeric one") {
    assert(RunExactBC.parse(Array("grid:3:4")).topK == 10)
    val a = RunExactBC.parse(Array("grid:3:4", "0"))
    assert(a.g.n == 12 && a.topK == 0)
    val p = RunExactBC.parse _
    rejects(p, "grid:3:4", "-1")("topK = -1 must be >= 0")
    rejects(p, "grid:3:4", "ten")("topK = 'ten' is not an integer")
    rejects(p)("expected 1 or 2 arguments, got 0")
  }
}
