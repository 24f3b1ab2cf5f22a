package repro.jobs

import repro.core.MHSingle
import repro.graph.{CSRGraph, SparkBrandes}

/** spark-submit entrypoint: estimate BC(r) with the single-space MH sampler
  * (§4.2), dependency evaluations distributed over Spark.
  *
  * Usage: RunSingleMH <graph-spec> <r> <T> [seed]
  * e.g.   RunSingleMH ba:2000:4:7 0 5000 42
  */
object RunSingleMH {
  val usage = "usage: RunSingleMH <graph-spec> <r> <T> [seed]"

  final case class Args(spec: String, g: CSRGraph, r: Int, T: Int, seed: Long)

  /** Reads and checks the arguments and builds the graph, without Spark:
    * r in [0, n), T ≥ 0. Throws `IllegalArgumentException` with the usage
    * line on a bad argument.
    */
  def parse(args: Array[String]): Args = {
    Jobs.check(args.length == 3 || args.length == 4, s"expected 3 or 4 arguments, got ${args.length}", usage)
    val r = Jobs.int("r", args(1), usage)
    val T = Jobs.int("T", args(2), usage)
    val seed = if (args.length > 3) Jobs.long("seed", args(3), usage) else 42L
    Jobs.check(T >= 0, s"T = $T must be >= 0", usage)
    val g = Jobs.csr(args(0), usage)
    Jobs.check(r >= 0 && r < g.n, s"r = $r is not a vertex: n = ${g.n}", usage)
    Args(args(0), g, r, T, seed)
  }

  def main(args: Array[String]): Unit = {
    val Args(spec, g, r, t, seed) = Jobs.parseOrExit(args)(parse)
    val spark = Jobs.session("RunSingleMH")
    try {
      val chain = MHSingle.runSpark(spark, g, r, t, seed)
      val exact = SparkBrandes.dependenciesOnTarget(spark, g, 0 until g.n, r).values.sum
      println(s"graph=$spec n=${g.n} m=${g.m} r=$r T=$t seed=$seed")
      println(f"acceptanceRate=${chain.acceptanceRate}%.4f")
      println(f"exact BC(r)          = $exact%.4f")
      println(f"estimate (harmonic)  = ${chain.estimateHarmonic}%.4f")
      println(f"estimate (eq7)       = ${chain.estimateEq7}%.6f")
      println(f"ergodic mean delta   = ${chain.ergodicMeanDelta}%.4f")
    } finally spark.stop()
  }
}
