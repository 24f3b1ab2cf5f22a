package repro.core

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}

/** One realized run of the joint-space sampler (§4.3). States are pairs
  * ⟨r, v⟩ with r ∈ R, v ∈ V(G); `statesR(t)` stores the *index into R*.
  *
  * @param delta per-source dependency restricted to R: delta(v)(k) = δ_{v•}(R(k))
  */
final case class JointChain(
    R: Array[Int],
    n: Int,
    seed: Long,
    statesR: Array[Int],
    statesV: Array[Int],
    propsR: Array[Int],
    propsV: Array[Int],
    accepted: Array[Boolean],
    delta: Map[Int, Array[Double]]) {

  def T: Int = propsV.length

  def acceptanceRate: Double = if (T == 0) 0.0 else accepted.count(identity).toDouble / T

  /** Iterations whose r-component is R(k) — the multiset S(k) of the paper. */
  def sampleIndices(k: Int): IndexedSeq[Int] = (0 to T).filter(statesR(_) == k)

  /** Numerator of Eq. 22 for the ordered pair (i over j):
    * (1/|S(j)|) Σ_{s ∈ S(j)} min{1, δ_{s.v•}(r_i)/δ_{s.v•}(r_j)} — the
    * estimator of the relative betweenness score B̈C_{r_j}(r_i). NaN when
    * S(j) is empty; throws `IllegalArgumentException` unless i and j are
    * indices into R.
    */
  def relativeEstimate(i: Int, j: Int): Double = {
    requireIndex(i, "i"); requireIndex(j, "j")
    val idx = sampleIndices(j)
    if (idx.isEmpty) Double.NaN
    else idx.map { t =>
      val d = delta(statesV(t))
      Estimators.cappedRatio(d(i), d(j))
    }.sum / idx.size
  }

  /** Eq. 22: estimate of BC(r_i)/BC(r_j), for two distinct indices into R
    * (so |R| ≥ 2); throws `IllegalArgumentException` otherwise.
    */
  def ratioEstimate(i: Int, j: Int): Double = {
    requireIndex(i, "i"); requireIndex(j, "j")
    require(i != j, s"ratioEstimate needs two distinct probes: i = j = $i")
    relativeEstimate(i, j) / relativeEstimate(j, i)
  }

  private def requireIndex(k: Int, name: String): Unit =
    require(k >= 0 && k < R.length, s"probe index $name = $k is outside [0, |R|): |R| = ${R.length}")
}

/** The joint-space Metropolis-Hastings sampler of §4.3: a chain on R × V(G)
  * with uniform proposals on both coordinates and acceptance
  * min{1, δ_{v'•}(r')/δ_{v•}(r)} (Eq. 17); stationary distribution Eq. 18.
  *
  * As with [[MHSingle]], proposals are iid, so each distinct proposed source
  * v needs one Brandes pass — which yields δ_{v•}(x) for *every* x at once,
  * so the whole R-restricted dependency table for a chain is one Spark job
  * ([[SparkBrandes.dependenciesOnTargets]]).
  */
object MHJoint {

  def drawProposals(nR: Int, n: Int, T: Int, seed: Long)
      : (Int, Int, Array[Int], Array[Int]) = {
    require(T >= 0, s"chain length T = $T must be >= 0")
    val rnd = new Random(seed)
    val r0 = rnd.nextInt(nR)
    val v0 = rnd.nextInt(n)
    val pr = Array.fill(T)(rnd.nextInt(nR))
    val pv = Array.fill(T)(rnd.nextInt(n))
    (r0, v0, pr, pv)
  }

  /** Accept/reject walk; same zero-δ conventions as [[MHSingle.walk]]. */
  def walk(R: Array[Int], n: Int, seed: Long, r0: Int, v0: Int,
           propsR: Array[Int], propsV: Array[Int],
           deltaOf: Int => Array[Double]): JointChain = {
    val T = propsV.length
    val rnd = new Random(seed ^ 0x5DEECE66DL)
    val statesR = new Array[Int](T + 1)
    val statesV = new Array[Int](T + 1)
    val accepted = new Array[Boolean](T)
    val deltas = scala.collection.mutable.HashMap.empty[Int, Array[Double]]
    def d(v: Int): Array[Double] = deltas.getOrElseUpdate(v, deltaOf(v))
    statesR(0) = r0; statesV(0) = v0
    var curR = r0; var curV = v0
    var t = 1
    while (t <= T) {
      val pR = propsR(t - 1); val pV = propsV(t - 1)
      val dp = d(pV)(pR) // evaluate proposal first so the table is complete
      val dc = d(curV)(curR)
      val ratio = if (dc == 0.0) 1.0 else dp / dc
      val acc = rnd.nextDouble() < math.min(1.0, ratio)
      if (acc) { curR = pR; curV = pV }
      accepted(t - 1) = acc
      statesR(t) = curR; statesV(t) = curV
      t += 1
    }
    JointChain(R, n, seed, statesR, statesV, propsR, propsV, accepted, deltas.toMap)
  }

  /** Throws `IllegalArgumentException` unless R is a non-empty set of
    * distinct vertices of `g`.
    */
  private def requireProbes(g: CSRGraph, R: Array[Int]): Unit = {
    require(R.nonEmpty, "probe set R is empty")
    R.foreach(g.requireVertex(_, "probe r"))
    require(R.distinct.length == R.length,
      s"probe set R has duplicate members: ${R.diff(R.distinct).distinct.mkString(", ")}")
  }

  /** Run fully locally: one full sweep per distinct source, through one
    * workspace.
    */
  def run(g: CSRGraph, R: Array[Int], T: Int, seed: Long): JointChain = {
    requireProbes(g, R)
    val (r0, v0, pr, pv) = drawProposals(R.length, g.n, T, seed)
    val ws = new LocalBrandes.Workspace(g.n)
    walk(R, g.n, seed, r0, v0, pr, pv, v => ws.dependenciesOn(g, v, R))
  }

  /** Run with all dependency evaluations as one distributed job. */
  def runSpark(spark: SparkSession, g: CSRGraph, R: Array[Int], T: Int,
               seed: Long): JointChain = {
    requireProbes(g, R)
    val (r0, v0, pr, pv) = drawProposals(R.length, g.n, T, seed)
    val table = SparkBrandes.dependenciesOnTargets(spark, g, v0 +: pv.toSeq, R)
    walk(R, g.n, seed, r0, v0, pr, pv, table)
  }
}
