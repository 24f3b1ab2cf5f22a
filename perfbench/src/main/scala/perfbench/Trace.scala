package perfbench

import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}

/** A timed interval at a layer boundary. Spans of one query share `query`;
  * `parent` is the index of the enclosing span in [[Tracer.spans]], or −1.
  */
final case class Span(name: String, query: Int, parent: Int, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory around calls the harness makes into the program. */
final class Tracer {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var open: List[Int] = Nil
  private var query = -1

  /** Open the root span of query `i`; every span inside it belongs to `i`. */
  def query[A](i: Int)(body: => A): A = { query = i; span("query")(body) }

  def span[A](name: String)(body: => A): A = {
    val idx = spans.length
    spans += Span(name, query, open.headOption.getOrElse(-1), System.nanoTime(), 0L)
    open = idx :: open
    try body
    finally {
      open = open.tail
      spans(idx) = spans(idx).copy(endNs = System.nanoTime())
    }
  }

  /** Seconds per span name within query `i` (children of the query span). */
  def layerSeconds(i: Int): Map[String, Double] = {
    val root = spans.indexWhere(s => s.query == i && s.parent == -1)
    spans.iterator.filter(s => s.query == i && s.parent == root)
      .toSeq.groupMapReduce(_.name)(_.seconds)(_ + _)
  }

  def querySeconds(i: Int): Double =
    spans.find(s => s.query == i && s.parent == -1).map(_.seconds).getOrElse(0.0)
}

/** Spark task metrics of the jobs launched under one job description. */
final class JobStats {
  var started = 0
  var ended = 0
  var tasks = 0
  var runMs = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var deserMs = 0L
  var resultBytes = 0L
  val stageRunMs: mutable.LinkedHashMap[Int, mutable.ArrayBuffer[Long]] = mutable.LinkedHashMap.empty

  /** Longest over median task run time in the stage that ran longest. */
  def skew: Double =
    if (stageRunMs.isEmpty) 1.0
    else {
      val ts = stageRunMs.values.maxBy(_.sum).sorted
      ts.last.toDouble / math.max(1L, ts(ts.length / 2))
    }
}

/** Collects task metrics by job description (`SparkContext.setJobDescription`).
  * Listener events arrive asynchronously; [[await]] blocks until every job
  * started under a description has ended.
  */
final class TaskMetricsListener extends SparkListener {
  private val stats = mutable.HashMap.empty[String, JobStats]
  private val jobTag = mutable.HashMap.empty[Int, String]
  private val stageTag = mutable.HashMap.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).foreach { d =>
      jobTag(e.jobId) = d
      e.stageIds.foreach(stageTag(_) = d)
      stats.getOrElseUpdate(d, new JobStats).started += 1
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (d <- stageTag.get(e.stageId); m <- Option(e.taskMetrics)) {
      val s = stats(d)
      s.tasks += 1
      s.runMs += m.executorRunTime
      s.cpuNs += m.executorCpuTime
      s.gcMs += m.jvmGCTime
      s.deserMs += m.executorDeserializeTime
      s.resultBytes += m.resultSize
      s.stageRunMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += m.executorRunTime
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobTag.get(e.jobId).foreach { d => stats(d).ended += 1; notifyAll() }
  }

  def await(description: String, timeoutMs: Long = 30000L): JobStats = synchronized {
    val deadline = System.currentTimeMillis() + timeoutMs
    def done = stats.get(description).exists(s => s.started > 0 && s.ended == s.started)
    while (!done && System.currentTimeMillis() < deadline)
      wait(math.max(1L, deadline - System.currentTimeMillis()))
    if (!done) throw new IllegalStateException(s"Spark jobs under '$description' did not end")
    stats(description)
  }
}
