package perfbench

import java.nio.file.{Files, Paths}

/** Command line:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]`.
  *
  * Prints the full record (every end-to-end metric, per-layer metrics when
  * traced, failures and provenance) on a line starting `perfbench-record`,
  * then, as the last line, the result: `correct`, `attempted`, `failed` and
  * the gated end-to-end metrics (`--trace 0`) or the per-layer metrics
  * (`--trace 1`).
  */
object Main {
  private val usage =
    s"usage: --workload <${Workload.names.mkString("|")}> --seed <n> --seconds <s> --trace <0|1> [--toy]"

  def parse(args: Seq[String]): Config = {
    def loop(rest: List[String], kv: Map[String, String]): Map[String, String] = rest match {
      case "--toy" :: tail                                    => loop(tail, kv + ("toy" -> "1"))
      case k :: v :: tail if k.startsWith("--") && k != "--toy" => loop(tail, kv + (k.drop(2) -> v))
      case Nil                                                => kv
      case other => throw new IllegalArgumentException(s"unexpected arguments ${other.mkString(" ")}")
    }
    val kv = loop(args.toList, Map.empty)
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "toy")
    require(unknown.isEmpty, s"unknown options ${unknown.mkString(", ")}")
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Workload(need("workload"), toy = false) // rejects an unknown name before any work
    Config(need("workload"), need("seed").toLong, seconds, trace, toy = kv.contains("toy"))
  }

  def record(out: Outcome): Obj = Obj(Seq(
    "correct" -> out.correct, "attempted" -> out.attempted, "failed" -> out.failed,
    "end_to_end" -> Obj(out.endToEnd), "per_layer" -> Obj(out.perLayer),
    "failures" -> out.failures.map { case (i, why) => Obj(Seq("query" -> i, "reason" -> why)) },
    "provenance" -> Obj(out.provenance)))

  def result(cfg: Config, out: Outcome): Obj = {
    val metrics =
      if (cfg.trace) out.perLayer.filter { case (k, _) => Metrics.perLayer.exists(_._1 == k) }
      else out.endToEnd.filter { case (k, _) => Metrics.gated.contains(k) }
    Obj(Seq("correct" -> out.correct, "attempted" -> out.attempted, "failed" -> out.failed,
      "metrics" -> Obj(metrics.map { case (k, m) => k -> Obj(Seq("value" -> m.value, "unit" -> m.unit)) })))
  }

  def main(args: Array[String]): Unit = {
    val cfg = try parse(args.toSeq) catch {
      case e: IllegalArgumentException =>
        System.err.println(s"${e.getMessage}\n$usage")
        sys.exit(2)
    }
    val out = Harness.run(cfg)
    // Spans are kept in memory during the run and written out at its end.
    for (dir <- sys.props.get("perfbench.traceDir") if cfg.trace) {
      Files.createDirectories(Paths.get(dir))
      Files.writeString(Paths.get(dir, s"${cfg.workload}-seed${cfg.seed}.json"),
        Json.render(out.spans.map(s => Obj(Seq("name" -> s.name, "query" -> s.query,
          "parent" -> s.parent, "start_ns" -> s.startNs, "end_ns" -> s.endNs)))))
    }
    println("perfbench-record " + Json.render(record(out)))
    println(Json.render(result(cfg, out)))
    System.out.flush()
    sys.exit(0)
  }
}
