package repro.jobs

import repro.core.MHJoint
import repro.graph.{CSRGraph, SparkBrandes}

/** spark-submit entrypoint: estimate all pairwise BC ratios of a probe set R
  * with the joint-space MH sampler (§4.3).
  *
  * Usage: RunJointMH <graph-spec> <r1,r2,...> <T> [seed]
  * e.g.   RunJointMH ba:2000:4:7 0,1,2,3 20000 42
  */
object RunJointMH {
  val usage = "usage: RunJointMH <graph-spec> <r1,r2,...> <T> [seed]"

  final case class Args(spec: String, g: CSRGraph, probes: Array[Int], T: Int, seed: Long)

  /** Reads and checks the arguments and builds the graph, without Spark: at
    * least two distinct probes, each in [0, n), since the job prints ratios
    * between them; T ≥ 0. Throws `IllegalArgumentException` with the usage
    * line on a bad argument.
    */
  def parse(args: Array[String]): Args = {
    Jobs.check(args.length == 3 || args.length == 4, s"expected 3 or 4 arguments, got ${args.length}", usage)
    val R = args(1).split(",", -1).map(Jobs.int("probe", _, usage))
    val T = Jobs.int("T", args(2), usage)
    val seed = if (args.length > 3) Jobs.long("seed", args(3), usage) else 42L
    Jobs.check(R.length >= 2, s"R = ${R.mkString(",")} needs at least 2 probes to form a ratio", usage)
    Jobs.check(R.distinct.length == R.length, s"R = ${R.mkString(",")} has a duplicate probe", usage)
    Jobs.check(T >= 0, s"T = $T must be >= 0", usage)
    val g = Jobs.csr(args(0), usage)
    R.foreach(r => Jobs.check(r >= 0 && r < g.n, s"probe $r is not a vertex: n = ${g.n}", usage))
    Args(args(0), g, R, T, seed)
  }

  def main(args: Array[String]): Unit = {
    val Args(spec, g, probes, t, seed) = Jobs.parseOrExit(args)(parse)
    val spark = Jobs.session("RunJointMH")
    try {
      val chain = MHJoint.runSpark(spark, g, probes, t, seed)
      val exact = probes.map(r =>
        r -> SparkBrandes.dependenciesOnTarget(spark, g, 0 until g.n, r).values.sum).toMap
      println(s"graph=$spec n=${g.n} m=${g.m} R=${probes.mkString(",")} T=$t seed=$seed")
      println(f"acceptanceRate=${chain.acceptanceRate}%.4f")
      for (i <- probes.indices; j <- probes.indices if i != j) {
        val est = chain.ratioEstimate(i, j)
        val tru = exact(probes(i)) / exact(probes(j))
        println(f"BC(${probes(i)})/BC(${probes(j)}): est=$est%.4f exact=$tru%.4f " +
          f"relEst=${chain.relativeEstimate(i, j)}%.4f")
      }
    } finally spark.stop()
  }
}
