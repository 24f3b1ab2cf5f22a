package repro.jobs

import repro.graph.{CSRGraph, SparkBrandes}

/** spark-submit entrypoint: exact betweenness of every vertex of a generated
  * graph via the source-parallel distributed Brandes.
  *
  * Usage: RunExactBC <graph-spec> [topK]
  * e.g.   RunExactBC ba:2000:4:7 10
  */
object RunExactBC {
  val usage = "usage: RunExactBC <graph-spec> [topK]"

  final case class Args(spec: String, g: CSRGraph, topK: Int)

  /** Reads and checks the arguments and builds the graph, without Spark:
    * topK ≥ 0. Throws `IllegalArgumentException` with the usage line on a
    * bad argument.
    */
  def parse(args: Array[String]): Args = {
    Jobs.check(args.length == 1 || args.length == 2, s"expected 1 or 2 arguments, got ${args.length}", usage)
    val topK = if (args.length > 1) Jobs.int("topK", args(1), usage) else 10
    Jobs.check(topK >= 0, s"topK = $topK must be >= 0", usage)
    Args(args(0), Jobs.csr(args(0), usage), topK)
  }

  def main(args: Array[String]): Unit = {
    val Args(spec, g, topK) = Jobs.parseOrExit(args)(parse)
    val spark = Jobs.session("RunExactBC")
    try {
      val bc = SparkBrandes.bc(spark, g)
      println(s"graph=$spec n=${g.n} m=${g.m}")
      bc.zipWithIndex.sortBy(-_._1).take(topK).foreach { case (score, v) =>
        println(f"v=$v%6d  BC=$score%.4f")
      }
    } finally spark.stop()
  }
}
