package repro.core

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}

/** One realized run of the single-space sampler.
  *
  * @param r         target vertex whose betweenness is being estimated
  * @param n         |V(G)|
  * @param seed      RNG seed (chains are pure functions of (graph, r, T, seed))
  * @param states    chain state at every iteration t = 0..T (length T+1)
  * @param proposals vertex proposed at iteration t = 1..T (length T)
  * @param accepted  whether iteration t's proposal was accepted (length T)
  * @param delta     δ_{v•}(r) for every vertex that appeared as state/proposal
  */
final case class Chain(
    r: Int,
    n: Int,
    seed: Long,
    states: Array[Int],
    proposals: Array[Int],
    accepted: Array[Boolean],
    delta: Map[Int, Double]) {

  def T: Int = proposals.length

  def acceptanceRate: Double = if (T == 0) 0.0 else accepted.count(identity).toDouble / T

  /** Paper's estimator, Eq. 7, reading M as the multiset of chain states
    * (consistent with Theorem 1's n = T+1 samples):
    * B̈C(r) = 1/((T+1)(|V|−1)) Σ_t δ_{X_t•}(r).
    */
  def estimateEq7: Double =
    states.map(delta).sum / ((T + 1).toDouble * (n - 1).toDouble)

  /** Plain ergodic average of δ over the chain — the π_r-mean E_π[δ] that
    * Eq. 7 (up to its 1/(|V|−1) factor) converges to; reported in benches to
    * make the Eq.-7 normalization gap visible.
    */
  def ergodicMeanDelta: Double = states.map(delta).sum / (T + 1).toDouble

  /** Self-normalized (harmonic-mean) estimator of the normalizing constant
    * BC(r) = Σ_v δ_{v•}(r): since E_{π_r}[1/δ] = |supp(δ)| / BC(r),
    * B̂C(r) = ŝupp / mean_t(1/δ_{X_t}). The support size is estimated for
    * free from the same run — proposals (and the initial state) are iid
    * uniform draws, so the fraction with δ > 0 estimates |supp|/|V|
    * unbiasedly. This is the estimator that makes the paper's chain actually
    * deliver BC(r); see DESIGN.md §1.
    */
  def estimateHarmonic: Double = {
    val unifDraws = states(0) +: proposals.toSeq
    val suppHat = n.toDouble * unifDraws.count(delta(_) > 0.0) / unifDraws.size
    val inSupport = states.iterator.map(delta).filter(_ > 0.0).toArray
    if (inSupport.isEmpty || suppHat == 0.0) 0.0
    else suppHat / (inSupport.map(1.0 / _).sum / inSupport.length)
  }
}

/** The single-space Metropolis-Hastings sampler of §4.2: an Independence MH
  * chain on V(G) with uniform proposals and acceptance
  * min{1, δ_{v'•}(r)/δ_{v•}(r)} (Eq. 6), whose stationary distribution is the
  * optimal sampling distribution π_r of Eq. 5.
  *
  * Because the proposal distribution does not depend on the current state,
  * the whole proposal stream is drawn up front and every needed dependency
  * score δ_{v•}(r) is evaluated as **one Spark job** over the distinct
  * proposed vertices ([[SparkBrandes.dependenciesOnTarget]]); the O(T)
  * accept/reject walk then runs on the driver.
  *
  * The chain needs only the scalar δ_{v•}(r), and two exact rules of
  * [[LocalBrandes.Workspace]] cut its cost:
  *  - the **support test** runs once per chain, before any sweep: one BFS
  *    from r and a DP over N(r) find the proposals v in whose shortest-path
  *    DAG r has no successor, so δ_{v•}(r) = 0; those get 0.0, which is
  *    exactly what the cone sweep returns for them;
  *  - every other proposal runs the **cone sweep**: by Eq. 4, δ_{v•}(r)
  *    depends only on r's descendants in v's shortest-path DAG, so the
  *    kernel accumulates over those only and ends its BFS at the first level
  *    whose descendants of r have no successor. It makes the same additions
  *    in the same order as the full sweep, so its result has the same bits
  *    as `LocalBrandes.dependency(g, v)(r)`.
  * The local path runs the same test and kernel through one workspace for
  * the whole chain, so the local and Spark paths are bit-for-bit identical
  * for the same seed.
  */
object MHSingle {

  /** Draw the initial state and the T uniform proposals for a given seed. */
  def drawProposals(n: Int, T: Int, seed: Long): (Int, Array[Int]) = {
    require(T >= 0, s"chain length T = $T must be >= 0")
    val rnd = new Random(seed)
    val v0 = rnd.nextInt(n)
    (v0, Array.fill(T)(rnd.nextInt(n)))
  }

  /** Accept/reject walk given a dependency lookup.
    *
    * Zero-score convention: from a state with δ = 0 every proposal is
    * accepted (ratio treated as 1 or ∞), and a proposal with δ = 0 is never
    * accepted from a state with δ > 0 (min{1, 0/δ} = 0) — so the chain
    * enters supp(δ) and never leaves it.
    */
  def walk(r: Int, n: Int, seed: Long, v0: Int, proposals: Array[Int],
           deltaOf: Int => Double): Chain = {
    val T = proposals.length
    val rnd = new Random(seed ^ 0x5DEECE66DL) // separate stream from drawProposals
    val states = new Array[Int](T + 1)
    val accepted = new Array[Boolean](T)
    val deltas = scala.collection.mutable.HashMap.empty[Int, Double]
    def d(v: Int): Double = deltas.getOrElseUpdate(v, deltaOf(v))
    states(0) = v0
    var cur = v0
    var t = 1
    while (t <= T) {
      val prop = proposals(t - 1)
      val dc = d(cur)
      val dp = d(prop) // always evaluated: estimators need every proposal's delta
      val ratio = if (dc == 0.0) 1.0 else dp / dc
      val acc = rnd.nextDouble() < math.min(1.0, ratio)
      if (acc) cur = prop
      accepted(t - 1) = acc
      states(t) = cur
      t += 1
    }
    Chain(r, n, seed, states, proposals, accepted, deltas.toMap)
  }

  /** Run fully locally: the support test and cone sweeps over the distinct
    * proposed vertices, through one workspace.
    */
  def run(g: CSRGraph, r: Int, T: Int, seed: Long): Chain = {
    g.requireVertex(r, "target r")
    val (v0, props) = drawProposals(g.n, T, seed)
    val sources = (v0 +: props).distinct
    val deltas = new LocalBrandes.Workspace(g.n).dependenciesOnTarget(g, sources, r)
    walk(r, g.n, seed, v0, props, sources.zip(deltas).toMap)
  }

  /** Run with the dependency evaluations distributed over Spark. */
  def runSpark(spark: SparkSession, g: CSRGraph, r: Int, T: Int, seed: Long): Chain = {
    g.requireVertex(r, "target r")
    val (v0, props) = drawProposals(g.n, T, seed)
    val deltas = SparkBrandes.dependenciesOnTarget(spark, g, v0 +: props.toSeq, r)
    walk(r, g.n, seed, v0, props, deltas)
  }
}
