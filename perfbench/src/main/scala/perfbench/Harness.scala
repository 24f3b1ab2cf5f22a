package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.graph.{CSRGraph, LocalBrandes}

/** @param seconds           time budget of the query loop (split in half between
  *                          the untraced and traced passes when `trace` is set)
  * @param toy               toy-size inputs, for the benchmark's own tests
  * @param corruptReference  shift every reference the gates compare against,
  *                          to show that a wrong answer is counted as failed
  */
final case class Config(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        toy: Boolean = false, corruptReference: Boolean = false)

final case class Outcome(
    attempted: Int,
    failures: Seq[(Int, String)],
    endToEnd: Seq[(String, Metric)],
    perLayer: Seq[(String, Metric)],
    provenance: Seq[(String, Any)],
    spans: Seq[Span]) {
  def failed: Int = failures.length
  def correct: Boolean = failures.isEmpty
}

/** Runs one workload as a closed loop from a single client: each query
  * starts when the previous one has finished.
  */
object Harness {
  private val SetupReps = 3

  private def session(): SparkSession = {
    val s = SparkSession.builder.master("local[*]").appName("perfbench").getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of the whole process, driver and task threads alike. Time the
    * host steals from this VM is not in it.
    */
  private def cpuSeconds(): Double = os.getProcessCpuTime / 1e9

  /** Ticks the host stole from this VM, and all CPU ticks, from /proc/stat. */
  private def hostTicks(): (Long, Long) = {
    val src = scala.io.Source.fromFile("/proc/stat")
    try {
      val ticks = src.getLines().next().split("\\s+").drop(1).map(_.toLong)
      (if (ticks.length > 7) ticks(7) else 0L, ticks.sum)
    } finally src.close()
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  /** Peak resident set of this process (VmHWM), in MB. */
  private def peakRssMb(): Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try src.getLines().collectFirst { case l if l.startsWith("VmHWM:") =>
      l.split("\\s+")(1).toDouble / 1024 }.getOrElse(Double.NaN)
    finally src.close()
  }

  def run(cfg: Config): Outcome = {
    val w = Workload(cfg.workload, cfg.toy)
    val graphSeed = new Random(cfg.seed).nextLong()
    var spark: SparkSession = null
    try {
      // Set-up is repeated and its median reported, so one slow start does not decide it.
      val setup = (0 until SetupReps).map { _ =>
        if (spark != null) spark.stop()
        val t0 = System.nanoTime()
        spark = session()
        val t1 = System.nanoTime()
        val edges = w.graph(graphSeed)
        val t2 = System.nanoTime()
        val g = CSRGraph.fromEdges(edges)
        val t3 = System.nanoTime()
        w.warmUp(spark, g)
        (g, secondsSince(t0), (t2 - t1) / 1e9, (t3 - t2) / 1e9)
      }
      measure(cfg, w, spark, setup)
    } finally if (spark != null) spark.stop()
  }

  private def measure(cfg: Config, w: Workload, spark: SparkSession,
                      setup: Seq[(CSRGraph, Double, Double, Double)]): Outcome = {
    val sc = spark.sparkContext
    val g = setup.last._1
    val slots = sc.defaultParallelism
    val tPrep = System.nanoTime()
    val q = w.prepare(spark, g, cfg.seed, cfg.corruptReference)
    val prepareS = secondsSince(tPrep)

    val failures = mutable.LinkedHashMap.empty[Int, String]
    def fail(i: Int, why: String): Unit = if (!failures.contains(i)) failures(i) = why
    def attempt(i: Int)(body: => q.A): Option[q.A] =
      try Some(body) catch { case NonFatal(e) => fail(i, s"threw $e"); None }
    def gate(i: Int, a: q.A): Unit =
      try q.check(i, a).foreach(fail(i, _)) catch { case NonFatal(e) => fail(i, s"check threw $e") }
    def tag(i: Int) = s"perfbench ${w.name} seed=${cfg.seed} query=$i"

    // Untraced closed loop: the end-to-end numbers.
    val budget = if (cfg.trace) cfg.seconds / 2 else cfg.seconds
    val answers = mutable.ArrayBuffer.empty[Option[q.A]]
    val times = mutable.ArrayBuffer.empty[Double]
    val cpuTimes = mutable.ArrayBuffer.empty[Double]
    val ticks0 = hostTicks()
    val loopStart = System.nanoTime()
    while (answers.length < w.minQueries || secondsSince(loopStart) < budget) {
      val i = answers.length
      sc.setJobDescription(tag(i))
      val c0 = cpuSeconds()
      val t0 = System.nanoTime()
      val a = attempt(i)(q.run(i))
      times += secondsSince(t0)
      cpuTimes += cpuSeconds() - c0
      a.foreach(gate(i, _))
      answers += a
    }
    sc.setJobDescription(null)
    val ticks1 = hostTicks()

    // Untimed: the local path must replay the first chain bit for bit.
    val tReplay = System.nanoTime()
    answers.head.foreach { a =>
      try q.replayLocal(0, a).foreach(fail(0, _))
      catch { case NonFatal(e) => fail(0, s"local replay threw $e") }
    }

    val replayS = secondsSince(tReplay)
    val relErrs = (0 until w.minQueries).flatMap(i => answers(i).toSeq.flatMap(q.relErrors(i, _)))
    val answered = answers.indices.filter(answers(_).isDefined)
    val sourceRates = answered.map(i => q.stats(answers(i).get).sources / times(i))
    val (tail, tailPct, tailBeyond) = Stats.tail(times.toSeq)
    val setupS = setup.map(_._2)

    val traced = if (cfg.trace) Some(tracedPass(w, q)(answers.toSeq, times.toSeq, slots, setup, fail, tag))
      else None
    val failedFrac = failures.size.toDouble / answers.length

    def m(name: String, value: Double, samples: Int) = name -> Metric(value, Metrics.unitOf(name), samples)
    val endToEnd = Seq(
      m("setup_s", Stats.median(setupS), setupS.length),
      m("query_s.p50", Stats.median(times.toSeq), times.length),
      m("query_s.tail", tail, times.length),
      m("query_cpu_s.mean", Stats.mean(cpuTimes.toSeq), cpuTimes.length),
      m("sources_per_s", if (answered.isEmpty) Double.NaN else Stats.median(sourceRates), answered.length),
      m("rel_err.p50", if (relErrs.isEmpty) Double.NaN else Stats.median(relErrs), relErrs.length),
      m("failed_frac", failedFrac, answers.length),
      m("peak_rss_mb", peakRssMb(), 1))

    val provenance = Seq[(String, Any)](
      "workload" -> w.name, "seed" -> cfg.seed, "seconds" -> cfg.seconds, "trace" -> cfg.trace,
      "toy" -> cfg.toy, "host_cores" -> Runtime.getRuntime.availableProcessors, "spark_slots" -> slots,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "spark_version" -> spark.version,
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.sourceHash", "unknown"),
      "prepare_s" -> prepareS, "replay_s" -> replayS,
      // A busy host shows here: stolen time slows every query of the run alike.
      "host_steal_share" -> (ticks1._1 - ticks0._1).toDouble / math.max(1L, ticks1._2 - ticks0._2),
      "graph_n" -> g.n, "graph_m" -> g.m, "queries" -> answers.length,
      "query_s.all" -> times.toSeq, "query_s.tail_percentile" -> tailPct, "query_s.tail_beyond" -> tailBeyond,
      "source_reuse" -> (if (answered.isEmpty) Double.NaN else Stats.median(answered.map { i =>
        val s = q.stats(answers(i).get); 1.0 - s.sources.toDouble / s.draws }))
    ) ++ q.describe

    Outcome(answers.length, failures.toSeq, endToEnd, traced.map(_._1).getOrElse(Nil), provenance,
      traced.map(_._2).getOrElse(Nil))
  }

  /** Replays every query of the untraced loop layer by layer, under spans and
    * a Spark listener, and checks each replay gives the same answer.
    */
  private def tracedPass(w: Workload, q: Queries)(answers: Seq[Option[q.A]],
                         untracedTimes: Seq[Double], slots: Int,
                         setup: Seq[(CSRGraph, Double, Double, Double)],
                         fail: (Int, String) => Unit, tag: Int => String): (Seq[(String, Metric)], Seq[Span]) = {
    val g = setup.last._1
    val sc = org.apache.spark.SparkContext.getOrCreate()
    val listener = new TaskMetricsListener
    sc.addSparkListener(listener)
    val tr = new Tracer
    val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    def add(name: String, v: Double): Unit = samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
    val tracedTimes = mutable.ArrayBuffer.empty[Double]
    try {
      for (i <- answers.indices) {
        val d = s"${tag(i)} traced"
        sc.setJobDescription(d)
        val gc0 = gcSeconds()
        val a = try Some(tr.query(i)(q.traced(i, tr))) catch { case NonFatal(e) => fail(i, s"traced replay threw $e"); None }
        val gc = gcSeconds() - gc0
        for (x <- a) {
          if (!answers(i).exists(q.same(x, _))) fail(i, "traced replay differs from the untraced query")
          val job = listener.await(d)
          val layers = tr.layerSeconds(i)
          val qs = tr.querySeconds(i)
          val jobS = layers("spark")
          val runS = job.runMs / 1e3
          tracedTimes += qs
          add("SparkBrandes.job_s", jobS)
          add("SparkBrandes.tasks", job.tasks)
          add("SparkBrandes.task_run_s", runS)
          add("SparkBrandes.task_cpu_s", job.cpuNs / 1e9)
          add("SparkBrandes.task_gc_s", job.gcMs / 1e3)
          add("SparkBrandes.task_deser_s", job.deserMs / 1e3)
          add("SparkBrandes.overhead_s", jobS - runS / slots)
          add("SparkBrandes.result_bytes", job.resultBytes.toDouble)
          add("SparkBrandes.slot_util", runS / (slots * jobS))
          add("SparkBrandes.task_skew", job.skew)
          add("jvm.gc_s", gc)
          add("trace.coverage", layers.values.sum / qs)
          w.sampler.foreach { p =>
            val st = q.stats(x)
            add(s"$p.propose_ms", layers("propose") * 1e3)
            add(s"$p.walk_ms", layers("walk") * 1e3)
            add(s"$p.estimate_ms", layers("estimate") * 1e3)
            add(s"$p.accept_rate", st.acceptRate)
            add(s"$p.distinct_sources", st.sources)
            add(s"$p.source_reuse", 1.0 - st.sources.toDouble / st.draws)
          }
        }
      }
    } finally {
      sc.setJobDescription(null)
      sc.removeSparkListener(listener)
    }

    // Per-query layer metrics are means, so that the layers of a query add up to it.
    val kernel = q.kernelSources
    val (bfsUs, arcNs, allocBytes) = kernelTiming(g, kernel)
    val measured = samples.toMap.map { case (k, v) => k -> Metric(Stats.mean(v.toSeq), Metrics.unitOf(k), v.length) } ++
      Map(
        "LocalBrandes.bfs_us" -> Metric(bfsUs, "us", kernel.length),
        "LocalBrandes.arc_ns" -> Metric(arcNs, "ns", kernel.length),
        "LocalBrandes.alloc_bytes_per_bfs" -> Metric(allocBytes, "bytes", kernel.length),
        "GraphGen.gen_s" -> Metric(Stats.median(setup.map(_._3)), "s", setup.length),
        "CSRGraph.build_s" -> Metric(Stats.median(setup.map(_._4)), "s", setup.length),
        "CSRGraph.bytes" -> Metric(4.0 * (g.offsets.length + g.neighbors.length), "bytes", 1)) ++
      Option.when(tracedTimes.nonEmpty)("trace.overhead" ->
        Metric(Stats.median(tracedTimes.toSeq) / Stats.median(untracedTimes), "ratio", tracedTimes.length))
    val names = Metrics.perLayer.map(_._1) ++
      w.sampler.toSeq.flatMap(p => Metrics.chainLayer.map { case (k, _) => s"$p.$k" })
    // A layer no traced query reached (every replay failed) reads NaN, which renders as null.
    (names.map(k => k -> measured.getOrElse(k, Metric(Double.NaN, Metrics.unitOf(k), 0))), tr.spans.toSeq)
  }

  /** Single-threaded `LocalBrandes.dependency` over `sources`: µs per BFS,
    * ns per CSR arc and bytes allocated per BFS by this thread.
    */
  private def kernelTiming(g: CSRGraph, sources: Array[Int]): (Double, Double, Double) = {
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val tid = Thread.currentThread().getId
    var sink = LocalBrandes.dependency(g, sources(0))(0)
    val a0 = mx.getThreadAllocatedBytes(tid)
    val t0 = System.nanoTime()
    sources.foreach(s => sink += LocalBrandes.dependency(g, s)(0))
    val ns = (System.nanoTime() - t0).toDouble
    val bytes = (mx.getThreadAllocatedBytes(tid) - a0).toDouble
    require(!sink.isNaN, "kernel returned NaN")
    val k = sources.length
    (ns / 1e3 / k, ns / (k.toDouble * g.neighbors.length), bytes / k)
  }
}
