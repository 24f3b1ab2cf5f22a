package perfbench

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core.{Chain, JointChain, MHJoint, MHSingle}
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}
import repro.graphgen.{EdgeList, GraphGen}

/** What one answered query did: distinct BFS sources evaluated, draws made
  * (chain states, or n for exact BC) and the chain's acceptance rate.
  */
final case class QueryStats(sources: Int, draws: Int, acceptRate: Double)

/** A workload's queries at one seed, with their exact references and checks.
  * Everything here is built outside the timed region.
  */
trait Queries {
  type A

  /** Query `i` through the public entry point the matching job calls: the timed call. */
  def run(i: Int): A

  /** Query `i` replayed layer by layer, each layer in its own span. */
  def traced(i: Int, tr: Tracer): A

  def stats(a: A): QueryStats

  /** Why `a` is a wrong answer to query `i`, if it is. */
  def check(i: Int, a: A): Option[String]

  /** Errors of `a` relative to the exact reference; deterministic per seed. */
  def relErrors(i: Int, a: A): Seq[Double]

  /** Replays query `i` on the local path and says how it differs from `a`, if it does. */
  def replayLocal(i: Int, a: A): Option[String]

  /** Whether two answers to the same query are the same answer. */
  def same(a: A, b: A): Boolean

  /** Sources, taken from the workload's own queries, for the single-threaded kernel timing. */
  def kernelSources: Array[Int]

  /** Inputs chosen from the seed, for the output record. */
  def describe: Seq[(String, Any)]
}

trait Workload {
  def name: String

  /** Prefix of the per-layer walk and estimator metrics (`MHSingle`, `MHJoint`), if a chain runs. */
  def sampler: Option[String]

  /** Queries run even past the time budget, so that `rel_err.p50` covers a fixed set. */
  def minQueries: Int

  def graph(seed: Long): EdgeList

  /** One query-shaped call, so classes are loaded and hot loops compiled before timing. */
  def warmUp(spark: SparkSession, g: CSRGraph): Unit

  def prepare(spark: SparkSession, g: CSRGraph, seed: Long, corruptReference: Boolean): Queries
}

object Workload {
  val names: Seq[String] = Seq("single-ba20k", "joint-ba2k-r8", "exact-grid150")

  /** The named workload; `toy` shrinks its inputs for the benchmark's own tests. */
  def apply(name: String, toy: Boolean): Workload = name match {
    case "single-ba20k"  => new SingleSpace(name, if (toy) 300 else 20000, if (toy) 200 else 2000)
    case "joint-ba2k-r8" => new JointSpace(name, if (toy) 200 else 2000, if (toy) 4 else 8,
                                           if (toy) 5000 else 200000)
    case "exact-grid150" => new ExactGrid(name, if (toy) 10 else 150)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other'; expected one of ${names.mkString(", ")}")
  }

  val Tolerance = 1e-9
  val KernelSample = 128
  private val SpotChecks = 3

  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= Tolerance * math.max(math.abs(a), math.abs(b))

  def relDiff(a: Double, b: Double): Double =
    if (a == b) 0.0 else math.abs(a - b) / math.max(math.abs(a), math.abs(b))

  def querySeed(seed: Long, i: Int): Long = seed * 1000003L + i

  /** The value a gate compares against; `corrupt` shifts it, to show the gate catches it. */
  def reference(x: Double, corrupt: Boolean): Double = if (corrupt) x * 1.001 + 1e-3 else x

  /** Sources of a chain's δ table to spot-check, drawn by the query's seed. */
  def spotSources(keys: Iterable[Int], seed: Long): Seq[Int] =
    new Random(seed).shuffle(keys.toVector.sorted).take(SpotChecks)

  def firstDistinct(vs: Iterator[Int]): Array[Int] = vs.distinct.take(KernelSample).toArray

  /** Vertices with BC > 0, highest degree first. */
  def byDegree(g: CSRGraph, bc: Array[Double]): IndexedSeq[Int] =
    (0 until g.n).filter(bc(_) > 0.0).sortBy(v => (-g.degree(v), v))

  def sameBits(a: Array[Double], b: Array[Double]): Boolean = java.util.Arrays.equals(a, b)

  private val ReferenceParts = 16

  /** Exact BC of every vertex: the reference estimates are scored against.
    * Partial sums over a fixed number of partitions are added in partition
    * order, so the reference, and so `rel_err.p50`, has the same bits on
    * every run and host. `SparkBrandes.bc` adds them in task-completion order.
    */
  def exactBC(spark: SparkSession, g: CSRGraph): Array[Double] =
    spark.sparkContext.parallelize(0 until g.n, ReferenceParts).mapPartitions { sources =>
      val acc = new Array[Double](g.n)
      sources.foreach { s =>
        val d = LocalBrandes.dependency(g, s)
        var v = 0
        while (v < g.n) { acc(v) += d(v); v += 1 }
      }
      Iterator.single(acc)
    }.collect().reduce { (a, b) =>
      var v = 0
      while (v < a.length) { a(v) += b(v); v += 1 }
      a
    }
}

import Workload._

/** Single-space queries: one `MHSingle.runSpark` chain on BA(n, 4) plus its
  * harmonic and Eq.-7 estimates. Targets alternate between high-degree
  * (top 1 %) and median-degree vertices.
  */
final class SingleSpace(val name: String, n: Int, T: Int) extends Workload {
  val sampler: Option[String] = Some("MHSingle")
  val minQueries = 4
  private val Targets = 8

  def graph(seed: Long): EdgeList = GraphGen.barabasiAlbert(n, 4, seed)

  def warmUp(spark: SparkSession, g: CSRGraph): Unit =
    MHSingle.runSpark(spark, g, 0, T, 0L).estimateHarmonic

  def prepare(spark: SparkSession, g: CSRGraph, seed: Long, corrupt: Boolean): Queries = new Queries {
    type A = (Chain, Array[Double])

    private val exact = exactBC(spark, g)
    private val rnd = new Random(seed)
    private val ranked = byDegree(g, exact)
    private val high = ranked.take(math.max(1, g.n / 100))
    private val medianDegree = g.degree(ranked(ranked.length / 2))
    private val median = ranked.filter(g.degree(_) == medianDegree)
    private val targets = Array.tabulate(Targets) { k =>
      val pool = if (k % 2 == 0) high else median
      pool(rnd.nextInt(pool.length))
    }
    private def r(i: Int) = targets(i % Targets)
    private def answer(c: Chain): A = (c, Array(c.estimateHarmonic, c.estimateEq7))

    def run(i: Int): A = answer(MHSingle.runSpark(spark, g, r(i), T, querySeed(seed, i)))

    def traced(i: Int, tr: Tracer): A = {
      val s = querySeed(seed, i)
      val (v0, props) = tr.span("propose")(MHSingle.drawProposals(g.n, T, s))
      val deltas = tr.span("spark")(SparkBrandes.dependenciesOnTarget(spark, g, v0 +: props.toSeq, r(i)))
      val c = tr.span("walk")(MHSingle.walk(r(i), g.n, s, v0, props, deltas))
      tr.span("estimate")(answer(c))
    }

    def stats(a: A): QueryStats = QueryStats(a._1.delta.size, a._1.T + 1, a._1.acceptanceRate)

    def check(i: Int, a: A): Option[String] = {
      val (c, est) = a
      if (!est.forall(_.isFinite)) Some(s"non-finite estimate ${est.mkString(",")}")
      else spotSources(c.delta.keys, querySeed(seed, i)).iterator.map { v =>
        (v, c.delta(v), reference(LocalBrandes.dependencyOn(g, v, r(i)), corrupt))
      }.collectFirst { case (v, got, want) if !close(got, want) =>
        s"delta_$v(${r(i)}) = $got but LocalBrandes.dependency gives $want"
      }
    }

    def relErrors(i: Int, a: A): Seq[Double] = Seq(relDiff(a._2(0), exact(r(i))))

    def replayLocal(i: Int, a: A): Option[String] =
      if (sameChain(MHSingle.run(g, r(i), T, querySeed(seed, i)), a._1)) None
      else Some("MHSingle.run and MHSingle.runSpark chains differ")

    private def sameChain(x: Chain, y: Chain): Boolean =
      x.states.sameElements(y.states) && x.proposals.sameElements(y.proposals) &&
        x.accepted.sameElements(y.accepted) && x.delta == y.delta

    def same(a: A, b: A): Boolean = sameChain(a._1, b._1) && sameBits(a._2, b._2)

    def kernelSources: Array[Int] = {
      val (v0, props) = MHSingle.drawProposals(g.n, T, querySeed(seed, 0))
      firstDistinct(Iterator.single(v0) ++ props.iterator)
    }

    def describe: Seq[(String, Any)] = Seq(
      "T" -> T, "targets" -> targets.toSeq, "targets_degree" -> targets.toSeq.map(g.degree),
      "targets_bc" -> targets.toSeq.map(exact(_)))
  }
}

/** Joint-space queries: one `MHJoint.runSpark` chain on BA(n, 4) over |R|
  * probes, one per equal slice of the degree ranking, plus all ordered-pair
  * Eq.-22 ratio estimates.
  */
final class JointSpace(val name: String, n: Int, probes: Int, T: Int) extends Workload {
  val sampler: Option[String] = Some("MHJoint")
  val minQueries = 2
  private val pairs = for (i <- 0 until probes; j <- 0 until probes if i != j) yield (i, j)

  def graph(seed: Long): EdgeList = GraphGen.barabasiAlbert(n, 4, seed)

  private def ratios(c: JointChain): Array[Double] =
    pairs.map { case (i, j) => c.ratioEstimate(i, j) }.toArray

  def warmUp(spark: SparkSession, g: CSRGraph): Unit =
    ratios(MHJoint.runSpark(spark, g, Array.range(0, probes), T, 0L))

  def prepare(spark: SparkSession, g: CSRGraph, seed: Long, corrupt: Boolean): Queries = new Queries {
    type A = (JointChain, Array[Double])

    private val exact = exactBC(spark, g)
    private val rnd = new Random(seed)
    private val ranked = byDegree(g, exact)
    private val R = Array.tabulate(probes) { k =>
      val lo = k * ranked.length / probes
      ranked(lo + rnd.nextInt((k + 1) * ranked.length / probes - lo))
    }
    private def answer(c: JointChain): A = (c, ratios(c))

    def run(i: Int): A = answer(MHJoint.runSpark(spark, g, R, T, querySeed(seed, i)))

    def traced(i: Int, tr: Tracer): A = {
      val s = querySeed(seed, i)
      val (r0, v0, pr, pv) = tr.span("propose")(MHJoint.drawProposals(R.length, g.n, T, s))
      val table = tr.span("spark")(SparkBrandes.dependenciesOnTargets(spark, g, v0 +: pv.toSeq, R))
      val c = tr.span("walk")(MHJoint.walk(R, g.n, s, r0, v0, pr, pv, table))
      tr.span("estimate")(answer(c))
    }

    def stats(a: A): QueryStats = QueryStats(a._1.delta.size, a._1.T + 1, a._1.acceptanceRate)

    def check(i: Int, a: A): Option[String] = {
      val (c, est) = a
      if (!est.forall(_.isFinite)) Some(s"non-finite ratio estimate ${est.mkString(",")}")
      else spotSources(c.delta.keys, querySeed(seed, i)).iterator.flatMap { v =>
        val d = LocalBrandes.dependency(g, v)
        R.indices.map(k => (v, k, c.delta(v)(k), reference(if (v == R(k)) 0.0 else d(R(k)), corrupt)))
      }.collectFirst { case (v, k, got, want) if !close(got, want) =>
        s"delta_$v(${R(k)}) = $got but LocalBrandes.dependency gives $want"
      }
    }

    def relErrors(i: Int, a: A): Seq[Double] = pairs.indices.map { p =>
      val (x, y) = pairs(p)
      relDiff(a._2(p), exact(R(x)) / exact(R(y)))
    }

    def replayLocal(i: Int, a: A): Option[String] =
      if (sameChain(MHJoint.run(g, R, T, querySeed(seed, i)), a._1)) None
      else Some("MHJoint.run and MHJoint.runSpark chains differ")

    private def sameChain(x: JointChain, y: JointChain): Boolean =
      x.statesR.sameElements(y.statesR) && x.statesV.sameElements(y.statesV) &&
        x.propsR.sameElements(y.propsR) && x.propsV.sameElements(y.propsV) &&
        x.accepted.sameElements(y.accepted) && x.delta.keySet == y.delta.keySet &&
        x.delta.forall { case (v, d) => sameBits(d, y.delta(v)) }

    def same(a: A, b: A): Boolean = sameChain(a._1, b._1) && sameBits(a._2, b._2)

    def kernelSources: Array[Int] = {
      val (_, v0, _, pv) = MHJoint.drawProposals(R.length, g.n, T, querySeed(seed, 0))
      firstDistinct(Iterator.single(v0) ++ pv.iterator)
    }

    def describe: Seq[(String, Any)] = Seq(
      "T" -> T, "R" -> R.toSeq, "R_degree" -> R.toSeq.map(g.degree), "R_bc" -> R.toSeq.map(exact(_)))
  }
}

/** Exact-BC queries: `SparkBrandes.bc` on the side × side grid. The grid has
  * no random part; the seed only picks the sources of the kernel timing.
  */
final class ExactGrid(val name: String, side: Int) extends Workload {
  val sampler: Option[String] = None
  val minQueries = 2

  def graph(seed: Long): EdgeList = GraphGen.grid(side, side)

  /** At reduced size: a full exact BC would triple the set-up time. */
  def warmUp(spark: SparkSession, g: CSRGraph): Unit = {
    val small = math.max(2, side / 5)
    SparkBrandes.bc(spark, CSRGraph.fromEdges(GraphGen.grid(small, small)))
  }

  /** Σ over ordered pairs s ≠ t of (d(s,t) − 1): what Σ_v BC(v) must equal,
    * since each shortest s–t path has d(s,t) − 1 interior vertices.
    */
  def pathInteriorSum(rows: Int, cols: Int): Double = {
    def spread(k: Long) = (k * k * k - k) / 3 // Σ_{i,j < k} |i − j|
    val n = rows.toLong * cols
    (cols.toLong * cols * spread(rows) + rows.toLong * rows * spread(cols) - n * (n - 1)).toDouble
  }

  def prepare(spark: SparkSession, g: CSRGraph, seed: Long, corrupt: Boolean): Queries = new Queries {
    type A = Array[Double]

    private val sum = reference(pathInteriorSum(side, side), corrupt)
    private def id(r: Int, c: Int) = r * side + c

    def run(i: Int): A = SparkBrandes.bc(spark, g)

    def traced(i: Int, tr: Tracer): A = tr.span("spark")(SparkBrandes.bc(spark, g))

    def stats(a: A): QueryStats = QueryStats(g.n, g.n, 0.0)

    /** Relative deviation of Σ BC from the closed form, and of each vertex
      * from its images under the row, column and diagonal mirrors.
      */
    private def deviations(bc: A): Iterator[Double] =
      Iterator.single(relDiff(bc.sum, sum)) ++
        (for (r <- Iterator.range(0, side); c <- Iterator.range(0, side);
              m <- Iterator(id(side - 1 - r, c), id(r, side - 1 - c), id(c, r)))
          yield relDiff(bc(id(r, c)), bc(m)))

    def check(i: Int, a: A): Option[String] =
      if (!a.forall(_.isFinite)) Some("non-finite BC value")
      else {
        val worst = deviations(a).max
        if (worst > Tolerance) Some(s"BC deviates from the closed form or a grid mirror by $worst")
        else None
      }

    def relErrors(i: Int, a: A): Seq[Double] = Seq(deviations(a).max)

    def replayLocal(i: Int, a: A): Option[String] = None

    /** Partial sums are merged in task-completion order, so runs agree to rounding only. */
    def same(a: A, b: A): Boolean = a.length == b.length && a.indices.forall(v => close(a(v), b(v)))

    def kernelSources: Array[Int] = {
      new Random(seed).shuffle(Vector.range(0, g.n)).take(KernelSample).toArray
    }

    def describe: Seq[(String, Any)] = Seq("side" -> side, "bc_sum_closed_form" -> pathInteriorSum(side, side))
  }
}
