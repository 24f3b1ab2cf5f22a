package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.graph.CSRGraph
import repro.graphgen.{EdgeList, GraphGen}

/** Shared helpers for the spark-submit entrypoints. */
object Jobs {

  def session(name: String): SparkSession = {
    // spark-submit injects spark.master as a system property; default to
    // local[*] so the mains also run under `sbt runMain`.
    val master = sys.props.get("spark.master")
      .orElse(sys.env.get("SPARK_MASTER"))
      .getOrElse("local[*]")
    val s = SparkSession.builder.appName(name).master(master)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Parse a graph spec like `ba:2000:4:7`, `er:2000:0.004:7`, `ws:2000:8:0.1:7`,
    * `barbell:500:3`, `doubleclique:500`, `path:100`, `karate`. Throws
    * `IllegalArgumentException` on a spec it cannot read.
    */
  def graph(spec: String): EdgeList =
    try spec.split(":").toList match {
      case "ba" :: n :: m :: seed :: Nil       => GraphGen.barabasiAlbert(n.toInt, m.toInt, seed.toLong)
      case "er" :: n :: p :: seed :: Nil       => GraphGen.erdosRenyi(n.toInt, p.toDouble, seed.toLong)
      case "ws" :: n :: k :: b :: seed :: Nil  => GraphGen.wattsStrogatz(n.toInt, k.toInt, b.toDouble, seed.toLong)
      case "barbell" :: k :: len :: Nil        => GraphGen.barbell(k.toInt, len.toInt)
      case "doubleclique" :: k :: Nil          => GraphGen.doubleClique(k.toInt)
      case "path" :: n :: Nil                  => GraphGen.path(n.toInt)
      case "grid" :: r :: c :: Nil             => GraphGen.grid(r.toInt, c.toInt)
      case "karate" :: Nil                     => GraphGen.karateClub
      case other => throw new IllegalArgumentException(s"unknown graph spec: ${other.mkString(":")}")
    } catch {
      case e: NumberFormatException =>
        throw new IllegalArgumentException(s"graph spec '$spec' has a non-numeric field: ${e.getMessage}")
    }

  /** Checks a job argument: throws `IllegalArgumentException` with `reason`
    * and the job's `usage` line unless `ok`.
    */
  def check(ok: Boolean, reason: => String, usage: String): Unit =
    if (!ok) throw new IllegalArgumentException(s"$reason\n$usage")

  /** Argument `value` named `what` as an Int, or the usage error. */
  def int(what: String, value: String, usage: String): Int =
    value.toIntOption.getOrElse(
      throw new IllegalArgumentException(s"$what = '$value' is not an integer\n$usage"))

  /** Argument `value` named `what` as a Long, or the usage error. */
  def long(what: String, value: String, usage: String): Long =
    value.toLongOption.getOrElse(
      throw new IllegalArgumentException(s"$what = '$value' is not an integer\n$usage"))

  /** The graph of spec argument `spec`, built, or the usage error. */
  def csr(spec: String, usage: String): CSRGraph =
    try CSRGraph.fromEdges(graph(spec)) catch { case e: IllegalArgumentException =>
      throw new IllegalArgumentException(s"${e.getMessage}\n$usage") }

  /** `parse(args)`, or, on a bad argument, the reason on stderr and exit
    * status 2, before any Spark session starts.
    */
  def parseOrExit[A](args: Array[String])(parse: Array[String] => A): A =
    try parse(args) catch { case e: IllegalArgumentException =>
      System.err.println(e.getMessage); sys.exit(2) }
}
