package repro.graph

import org.apache.spark.sql.SparkSession

/** Source-parallel exact Brandes on Spark (RDD layer).
  *
  * The graph (a pair of primitive arrays) is broadcast once; sources are an
  * RDD and each partition runs the local kernel through one
  * [[LocalBrandes.Workspace]], so no source allocates buffers. This is the
  * standard way Brandes scales out (the graph fits on every executor; the
  * |V|-way source loop is what is parallelized), and it is also exactly the
  * shape of the paper's sampler workload: every MH proposal needs one
  * dependency evaluation, and proposals of an *independence* sampler are iid,
  * so a whole chain's worth of them is evaluated as one Spark job.
  *
  * A job that needs one target per source (`dependenciesOnTarget`) first
  * drops, on the driver, every source the support test proves has zero
  * dependency on the target, and runs the cone sweep for the rest, which
  * visits only the target's descendants in each source's shortest-path DAG;
  * jobs that need several or all targets (`bc`, `dependenciesOnTargets`) run
  * the full sweep. Both give the same bits as `LocalBrandes.dependency`.
  */
object SparkBrandes {

  /** Exact BC of every vertex: Σ over sources of the dependency vector,
    * reduced as dense arrays. Throws if a partition's sum is not finite.
    */
  def bc(spark: SparkSession, g: CSRGraph, numPartitions: Int = 0): Array[Double] = {
    val sc = spark.sparkContext
    val parts = if (numPartitions > 0) numPartitions else sc.defaultParallelism
    val bg = sc.broadcast(g)
    val out = sc
      .parallelize(0 until g.n, math.min(parts, g.n))
      .mapPartitions(sources => Iterator.single(LocalBrandes.accumulate(bg.value, sources)))
      .treeReduce { (a, b) =>
        var i = 0
        while (i < a.length) { a(i) += b(i); i += 1 }
        a
      }
    bg.destroy()
    out
  }

  /** δ_{v•}(r) for each source v in `sources`. The support test
    * (`LocalBrandes.Workspace.needsSweep`) runs once on the driver and gives
    * 0.0 to every source it proves has δ_{v•}(r) = 0; the rest are one
    * distributed job of cone sweeps, one workspace per partition, and no job
    * runs when no source is left. Duplicate sources are deduplicated before
    * shipping. Every value has the bits of the local cone sweep.
    */
  def dependenciesOnTarget(
      spark: SparkSession,
      g: CSRGraph,
      sources: Seq[Int],
      r: Int,
      numPartitions: Int = 0): Map[Int, Double] = {
    val distinct = sources.distinct.toArray
    val live = new LocalBrandes.Workspace(g.n).needsSweep(g, r, distinct) // checks r and sources
    val (swept, zero) = distinct.indices.partition(live(_))
    val zeros = zero.map(distinct(_) -> 0.0)
    if (swept.isEmpty) return zeros.toMap
    val sc = spark.sparkContext
    val parts = math.max(1, math.min(
      if (numPartitions > 0) numPartitions else sc.defaultParallelism, swept.size))
    val bg = sc.broadcast(g)
    val out = sc
      .parallelize(swept.map(distinct(_)), parts)
      .mapPartitions { vs =>
        val graph = bg.value
        val ws = new LocalBrandes.Workspace(graph.n)
        vs.map(v => v -> ws.dependencyOn(graph, v, r))
      }
      .collect()
    bg.destroy()
    (out ++ zeros).toMap
  }

  /** For each source v in `sources`, the restriction of its dependency vector
    * to `targets` — one full sweep per source yields δ_{v•}(x) for *all* x
    * simultaneously, so the joint-space sampler (which needs δ_{v•}(r) for
    * every r ∈ R) costs the same per sample as the single-space one.
    */
  def dependenciesOnTargets(
      spark: SparkSession,
      g: CSRGraph,
      sources: Seq[Int],
      targets: Array[Int],
      numPartitions: Int = 0): Map[Int, Array[Double]] = {
    targets.foreach(g.requireVertex(_, "target r"))  // on the driver, before the job
    val sc = spark.sparkContext
    val distinct = sources.distinct
    val parts = math.max(1, math.min(
      if (numPartitions > 0) numPartitions else sc.defaultParallelism, distinct.size))
    val bg = sc.broadcast(g)
    val bt = sc.broadcast(targets)
    val out = sc
      .parallelize(distinct, parts)
      .mapPartitions { vs =>
        val graph = bg.value
        val ws = new LocalBrandes.Workspace(graph.n)
        vs.map(v => v -> ws.dependenciesOn(graph, v, bt.value))
      }
      .collect()
      .toMap
    bg.destroy(); bt.destroy()
    out
  }
}
