package perfbench

/** A metric as reported: value, unit and the number of samples behind it. */
final case class Metric(value: Double, unit: String, samples: Int)

/** The metric names and units the benchmark reports. */
object Metrics {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "query_s.p50" -> "s", "query_s.tail" -> "s", "query_cpu_s.mean" -> "s",
    "sources_per_s" -> "1/s", "rel_err.p50" -> "ratio", "failed_frac" -> "ratio", "peak_rss_mb" -> "MB")

  /** End-to-end metrics on the result line, and so under a regression bound.
    * The rest are left to the record. `rel_err.p50` is at rounding level on
    * the grid and varies with the seed's inputs, not with speed.
    * `failed_frac` is zero on a correct run and is already the result's
    * `failed`/`attempted`. `query_s.tail` is the maximum of a run whenever
    * it has fewer than 20 queries, as `exact-grid150` does, and so follows
    * the host's noise more than the program.
    */
  val gated: Seq[String] = Seq("setup_s", "query_s.p50", "query_cpu_s.mean", "sources_per_s", "peak_rss_mb")

  /** Per-layer metrics every workload measures: the `--trace 1` result line. */
  val perLayer: Seq[(String, String)] = Seq(
    "LocalBrandes.bfs_us" -> "us", "LocalBrandes.arc_ns" -> "ns",
    "LocalBrandes.alloc_bytes_per_bfs" -> "bytes",
    "SparkBrandes.job_s" -> "s", "SparkBrandes.tasks" -> "count",
    "SparkBrandes.task_run_s" -> "s", "SparkBrandes.task_cpu_s" -> "s",
    "SparkBrandes.task_gc_s" -> "s", "SparkBrandes.task_deser_s" -> "s",
    "SparkBrandes.overhead_s" -> "s", "SparkBrandes.result_bytes" -> "bytes",
    "SparkBrandes.slot_util" -> "ratio", "SparkBrandes.task_skew" -> "ratio",
    "GraphGen.gen_s" -> "s", "CSRGraph.build_s" -> "s", "CSRGraph.bytes" -> "bytes",
    "jvm.gc_s" -> "s", "trace.overhead" -> "ratio", "trace.coverage" -> "ratio")

  /** Per-layer metrics of a chain's driver side, prefixed `MHSingle.` or
    * `MHJoint.`. Only the workload running that sampler has them, so they go
    * to the full record and not to the result line, which every workload
    * must fill with measured values.
    */
  val chainLayer: Seq[(String, String)] = Seq("propose_ms" -> "ms", "walk_ms" -> "ms",
    "estimate_ms" -> "ms", "accept_rate" -> "ratio", "distinct_sources" -> "count",
    "source_reuse" -> "ratio")

  def unitOf(name: String): String =
    (endToEnd ++ perLayer).collectFirst { case (`name`, u) => u }
      .orElse(chainLayer.collectFirst { case (k, u) if name.endsWith("." + k) => u })
      .getOrElse(throw new IllegalArgumentException(s"undeclared metric $name"))
}

object Stats {
  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.length
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Tail percentiles tried, highest first. */
  private val Ladder = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  /** The highest percentile of `xs` with at least 10 samples beyond it
    * (nearest rank), as (value, percentile, samples beyond). With fewer
    * than 20 samples no such percentile exists and the maximum is reported
    * as percentile 100 with 0 beyond.
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s = xs.sorted
    val n = s.length
    Ladder.iterator.map { p => (p, math.ceil(p / 100 * n).toInt) }
      .collectFirst { case (p, rank) if rank >= 1 && n - rank >= 10 => (s(rank - 1), p, n - rank) }
      .getOrElse((s.last, 100.0, 0))
  }
}

/** A JSON object with its fields in order. */
final case class Obj(fields: Seq[(String, Any)])

/** Minimal JSON rendering for the output lines. */
object Json {
  def render(x: Any): String = x match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => if (d.isFinite) d.toString else "null"
    case f: Float            => render(f.toDouble)
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: Metric           => render(Obj(Seq("value" -> m.value, "unit" -> m.unit, "samples" -> m.samples)))
    case Obj(fields)         => fields.map { case (k, v) => s"${quote(k)}: ${render(v)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]     => xs.map(render).mkString("[", ", ", "]")
    case other               => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').result()
  }
}
