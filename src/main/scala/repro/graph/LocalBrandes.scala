package repro.graph

/** Exact Brandes machinery on a local CSR graph.
  *
  * There is one kernel, [[LocalBrandes.Workspace]], with two sweeps:
  *
  *  - the **full sweep** (`Workspace.sweep`, and `dependency` on a fresh
  *    workspace) is the O(|E|) per-sample kernel of the paper (§4.1 — "it can
  *    be done in O(|E(G)|) time for unweighted graphs"): it yields δ_{s•}(v)
  *    for every v at once, which is what `bc` (Eq. 3) and the joint-space
  *    sampler (§4.3) need;
  *  - the **cone sweep** (`Workspace.dependencyOn`) yields the one scalar
  *    δ_{s•}(r) that the single-space acceptance ratio (Eq. 6) needs, and
  *    touches only r's cone (see `Workspace`).
  *
  * A caller that needs δ_{s•}(r) for many sources and one r
  * (`Workspace.dependenciesOnTarget`) first runs the **support test**
  * (`Workspace.needsSweep`), which proves δ_{s•}(r) = 0 for many sources at
  * the cost of a few BFS passes, and runs the cone sweep only for the rest.
  *
  * `dependency` and the 3-argument `dependencyOn` stay the full-sweep
  * reference that tests and benchmarks check the cone sweep against. BC uses
  * the ordered-pair convention: each unordered pair {s,t} contributes twice,
  * once per direction.
  */
object LocalBrandes {

  /** Reusable per-thread buffers for the Brandes kernel on graphs of at most
    * `n` vertices: one state byte, `sigma`, BFS `order` and `delta` per
    * vertex, plus cone-predecessor slots the cone sweep allocates on first
    * use. A call writes only the vertices its BFS reaches and resets them
    * before it returns: one by one when it reached at most n/4 vertices, by
    * a bulk fill of the three arrays otherwise. So a call costs O(what it
    * visits), not O(n), and no sweep allocates (the support test allocates
    * its result, and its two bit arrays once per workspace). Not
    * thread-safe: use one workspace per thread, e.g. one per Spark partition.
    *
    * '''The state byte.''' `state(v)` is −1 for a vertex the BFS has not
    * discovered, and otherwise `level mod 3` plus `Cone` when v is marked.
    * BFS neighbours differ by at most one level, so `level mod 3` alone tells
    * a neighbour's level apart as predecessor, same level or successor, and
    * one byte per vertex replaces an `Int` distance and a `Boolean` mark.
    * `spd` recovers exact distances by counting level changes along `order`.
    *
    * '''The cone.''' By the Brandes recursion (Eq. 4),
    * δ_{s•}(v) = Σ_{w : v ∈ P_s(w)} σ_{sv}/σ_{sw} · (1 + δ_{s•}(w)), so δ_{s•}(r)
    * depends only on σ, and δ of r's successors, their successors, and so on:
    * on r's cone, the descendants of r in s's shortest-path DAG (r included).
    * The forward BFS marks r and every vertex with a marked predecessor, and
    * records each marked predecessor v of w in w's own CSR slot range,
    * `pred(offsets(w) + k)` for k < `npred(w)`; the count is reset when w is
    * discovered, and a vertex has at most deg(w) predecessors. A mark is
    * final once its vertex is dequeued (all its predecessors were dequeued
    * before it), so the recorded pairs are exactly the pairs (v, w) with v a
    * marked predecessor of w. The BFS stops at the start of the first level
    * L ≥ dist(r) whose marked vertices have no successor, before expanding L:
    * at that point every vertex of a level ≤ L has been discovered, so a
    * vertex of level L has a successor exactly when it has an undiscovered
    * neighbour, and no vertex past L can be marked. The backward sweep then
    * runs from the BFS tail down to r's successors over marked vertices only,
    * adding into each one's recorded predecessors with no level or mark test.
    *
    * '''Same bits as the full sweep.''' Both sweeps run the same BFS, so σ and
    * the visiting order agree on every vertex the cone sweep reaches. Every
    * addition the full sweep makes into a cone vertex v comes from a DAG
    * successor of v, which is itself in the cone, and each such pair is
    * recorded once; the cone sweep makes one addition per pair in the same
    * reverse-BFS order with the same operands. So
    * `dependencyOn(g, s, r) == dependency(g, s)(r)` exactly, not just to
    * rounding. Stopping the BFS before level L + 1 drops only unmarked
    * vertices from the tail of `order`, which the backward sweep skips
    * anyway, so the stop leaves the prefix of `order`, σ and every addition
    * as they are.
    */
  final class Workspace(val n: Int) {
    import Workspace.{Cone, Undiscovered, below}

    private val state: Array[Byte] = Array.fill(n)(Undiscovered)
    private[graph] val sigma = new Array[Double](n)
    private[graph] val order = new Array[Int](n)
    private[graph] val delta = new Array[Double](n)
    /** Number of entries of `order` the current call has filled. */
    private[graph] var tail = 0
    /** Cone predecessor slots: one per arc of `g`, reallocated only for a
      * graph with more arcs than any before. `npred(w)` counts w's slots in use.
      */
    private var pred = Array.emptyIntArray
    private lazy val npred = new Array[Int](n)

    /** δ_{s•}(r) by the cone sweep; 0 when s == r or r is unreachable from s.
      * Throws `IllegalArgumentException` on a vertex outside the graph and
      * `ArithmeticException` when the result is not finite (σ overflow).
      */
    def dependencyOn(g: CSRGraph, s: Int, r: Int): Double = {
      checkGraph(g); g.requireVertex(s, "source s"); g.requireVertex(r, "target r")
      if (s == r) return 0.0
      val d =
        try {
          val pos = forward(g, s, r)
          if (pos < 0) 0.0 else { coneBackward(g, pos + 1); delta(r) }
        } finally clear()
      requireFinite(s, r, d)
    }

    /** δ_{s•}(r) for each s in `sources`: the support test (`needsSweep`),
      * then one cone sweep for each source it did not rule out; a ruled-out
      * source gets 0.0. Has the bits of `dependencyOn` called per source.
      */
    def dependenciesOnTarget(g: CSRGraph, sources: Array[Int], r: Int): Array[Double] = {
      val live = needsSweep(g, r, sources)
      Array.tabulate(sources.length)(i => if (live(i)) dependencyOn(g, sources(i), r) else 0.0)
    }

    /** The support test for target `r`: for each s in `sources`, false only
      * when δ_{s•}(r) = 0 is proven, in which case the cone sweep would return
      * exactly 0.0 as well (no addition ever reaches `delta(r)`). True means
      * "run the cone sweep": δ_{s•}(r) > 0, or the test stopped before it
      * could rule s out. When it runs to the end, true ⟺ δ_{s•}(r) > 0.
      *
      * δ_{s•}(r) > 0 exactly when r has a successor in s's shortest-path DAG:
      * some w ∈ N(r) with d(s,w) = d(s,r) + 1. One BFS from r and a DP over
      * its levels decide this for every s at once. With
      * S(s) = {w ∈ N(r) : d(w,s) = d(r,s) + 1} and T(s) = {w ∈ N(r) : d(w,s) ≥ d(r,s)},
      * S(r) = T(r) = N(r), and for s at r-level ℓ ≥ 1, since d(w,y) ≥ d(r,y) − 1
      * for every y:
      *  - T(s) = ⋂_{pred x} T(x) \ {s},
      *  - S(s) = ⋂_{pred x} S(x) ∩ ⋂_{same-level x} T(x) \ {s},
      * and δ_{s•}(r) > 0 ⟺ S(s) ≠ ∅. A source unreachable from r, and r
      * itself, has δ = 0. N(r) is processed in batches of 64 neighbours, one
      * `Long` of S and one of T per vertex, so memory is O(n) for any deg(r);
      * each batch costs one pass over the arcs of r's component, about one BFS.
      * The test stops once no requested source is undecided, and also once
      * no more are undecided than batches remain: those sources run the cone
      * sweep, which costs no more than the batches that could rule them out.
      */
    def needsSweep(g: CSRGraph, r: Int, sources: Array[Int]): Array[Boolean] = {
      checkGraph(g); g.requireVertex(r, "target r")
      sources.foreach(g.requireVertex(_, "source s"))
      try {
        forward(g, r, -1) // `order` lists r's component level by level
        // The cone bit marks the requested sources not yet shown to have δ > 0.
        var undecided = 0
        sources.foreach { s =>
          if (s != r && state(s) >= 0 && state(s) < Cone) { state(s) = (state(s) | Cone).toByte; undecided += 1 }
        }
        val first = g.offsets(r)
        val deg = g.degree(r)
        val batches = (deg + 63) / 64
        var b = 0
        while (b < batches && undecided > batches - b) {
          undecided = supportBatch(g, first + 64 * b, math.min(64, deg - 64 * b), undecided)
          b += 1
        }
        val complete = b == batches
        sources.map(s => s != r && state(s) >= 0 && !(complete && state(s) >= Cone))
      } finally clear()
    }

    private lazy val sBits = new Array[Long](n)
    private lazy val tBits = new Array[Long](n)

    /** One batch of the support test over the `cnt` neighbours of r at
      * `neighbors(first until first + cnt)`; bit j stands for the j-th. Unmarks
      * each marked source whose S is non-empty and returns how many marked
      * sources remain.
      */
    private def supportBatch(g: CSRGraph, first: Int, cnt: Int, undecided: Int): Int = {
      val off = g.offsets; val nbr = g.neighbors
      val st = state; val sb = sBits; val tb = tBits
      val all = if (cnt == 64) -1L else (1L << cnt) - 1
      var i = 0
      while (i < tail) { val v = order(i); sb(v) = all; tb(v) = all; i += 1 }
      var j = 0
      while (j < cnt) { val w = nbr(first + j); sb(w) &= ~(1L << j); tb(w) &= ~(1L << j); j += 1 }
      // In BFS order, T(x) is final once the level before x's is done, and the
      // pass pushes it into x's next-level neighbours; S(x) pulls from x's
      // predecessors and same-level neighbours, which are final by then.
      var left = undecided
      i = 1
      while (i < tail && left > 0) {
        val x = order(i); i += 1
        val lx = st(x) & 3
        val lp = below(lx)
        val tx = tb(x)
        var sx = sb(x)
        var k = off(x); val end = off(x + 1)
        while (k < end) {
          val y = nbr(k)
          val ly = st(y) & 3
          if (ly == lp) sx &= sb(y)
          else if (ly == lx) sx &= tb(y)
          else tb(y) &= tx
          k += 1
        }
        sb(x) = sx
        if (sx != 0L && st(x) >= Cone) { st(x) = (st(x) & 3).toByte; left -= 1 }
      }
      left
    }

    /** δ_{s•}(x) for each x in `targets`, by one full sweep; the same checks
      * as the cone sweep.
      */
    def dependenciesOn(g: CSRGraph, s: Int, targets: Array[Int]): Array[Double] = {
      targets.foreach(g.requireVertex(_, "target r"))
      val row = sweep(g, s)(d => targets.map(d(_)))
      var k = 0
      while (k < row.length) { requireFinite(s, targets(k), row(k)); k += 1 }
      row
    }

    /** Full sweep from `s`: `read` sees δ_{s•}(v) for every vertex v (0 where
      * unreachable, and δ_{s•}(s) = 0). The array is the workspace's own and is
      * valid only inside `read`.
      */
    def sweep[A](g: CSRGraph, s: Int)(read: Array[Double] => A): A = {
      checkGraph(g); g.requireVertex(s, "source s")
      try { fullSweep(g, s); read(delta) } finally clear()
    }

    /** Full sweep that leaves its result in the buffers. */
    private[graph] def fullSweep(g: CSRGraph, s: Int): Unit = {
      forward(g, s, -1)
      backward(g)
      delta(s) = 0.0
    }

    private def checkGraph(g: CSRGraph): Unit =
      require(g.n <= n, s"workspace for $n vertices cannot serve a graph with n = ${g.n}")

    /** BFS from `s` filling `state`, `sigma` and `order`. With a target r ≥ 0
      * it also marks r's cone, records each vertex's marked predecessors, and
      * stops at the first level, from dist(r) on, whose marked vertices have
      * no successor (see `coneGrows`); it returns r's position in `order`, or
      * −1 if the BFS never reached r.
      */
    private[graph] def forward(g: CSRGraph, s: Int, r: Int): Int = {
      val off = g.offsets; val nbr = g.neighbors
      val st = state; val sg = sigma; val ord = order
      val coneSweep = r >= 0
      if (coneSweep && pred.length < nbr.length) pred = new Array[Int](nbr.length)
      val pr = pred; val np = if (coneSweep) npred else null
      st(s) = 0; sg(s) = 1.0
      ord(0) = s
      var t = 1          // entries of `order` filled
      var head = 0
      var levelEnd = 1   // end in `order` of the level being expanded
      var next = 1       // level mod 3 of the vertices this level discovers
      var rPos = -1
      while (head < t) {
        if (head == levelEnd) {
          // The level starting here is complete, and so are its marks.
          if (rPos >= 0 && !coneGrows(g, head, t)) { tail = t; return rPos }
          levelEnd = t
          next = if (next == 2) 0 else next + 1
        }
        val v = ord(head); head += 1
        val sv = sg(v)
        val mv = st(v) >= Cone
        var k = off(v); val end = off(v + 1)
        while (k < end) {
          val w = nbr(k)
          var sw = st(w).toInt
          if (sw < 0) {
            sw = if (w == r) { rPos = t; next | Cone } else next
            st(w) = sw.toByte; ord(t) = w; t += 1
            if (coneSweep) np(w) = 0
          }
          if ((sw & 3) == next) {
            sg(w) += sv
            if (mv) {
              if (sw < Cone) st(w) = (sw | Cone).toByte
              val c = np(w); pr(off(w) + c) = v; np(w) = c + 1
            }
          }
          k += 1
        }
      }
      tail = t
      rPos
    }

    /** Whether a marked vertex of the level `order(from until to)` has a
      * successor. At the start of a level every vertex of that level or a
      * shallower one has been discovered, so the successors of a vertex there
      * are exactly its undiscovered neighbours, and the cone grows past this
      * level only if one of its marked vertices has such a neighbour.
      */
    private def coneGrows(g: CSRGraph, from: Int, to: Int): Boolean = {
      val off = g.offsets; val nbr = g.neighbors
      var i = from
      while (i < to) {
        val v = order(i)
        if (state(v) >= Cone) {
          var k = off(v); val end = off(v + 1)
          while (k < end) { if (state(nbr(k)) < 0) return true; k += 1 }
        }
        i += 1
      }
      false
    }

    /** Brandes accumulation of the full sweep over all of `order`, from the
      * BFS tail down; a vertex's predecessors are its neighbours one level
      * (mod 3) below it. The full sweep sets no cone bit.
      */
    private def backward(g: CSRGraph): Unit = {
      val off = g.offsets; val nbr = g.neighbors
      val st = state; val sg = sigma; val dl = delta
      var i = tail - 1
      while (i >= 0) {
        val w = order(i); i -= 1
        val coef = (1.0 + dl(w)) / sg(w)
        val lp = below(st(w))
        var k = off(w); val end = off(w + 1)
        while (k < end) {
          val v = nbr(k)
          if (st(v) == lp) dl(v) += sg(v) * coef
          k += 1
        }
      }
    }

    /** Brandes accumulation of the cone sweep from the BFS tail down to
      * position `from`: each marked vertex adds into its recorded
      * predecessors, which are exactly its marked predecessors.
      */
    private def coneBackward(g: CSRGraph, from: Int): Unit = {
      val off = g.offsets; val pr = pred; val np = npred
      val st = state; val sg = sigma; val dl = delta
      var i = tail - 1
      while (i >= from) {
        val w = order(i); i -= 1
        if (st(w) >= Cone) {
          val coef = (1.0 + dl(w)) / sg(w)
          var k = off(w); val end = k + np(w)
          while (k < end) { val v = pr(k); dl(v) += sg(v) * coef; k += 1 }
        }
      }
    }

    /** Exact distances from the last BFS's source, −1 where it did not reach:
      * levels never decrease along `order`, and a level change shows as a
      * change of `level mod 3`. Valid before `clear`, for a BFS with no marks.
      */
    private[graph] def distances(): Array[Int] = {
      val dist = Array.fill(n)(-1)
      var d = 0
      var i = 0
      while (i < tail) {
        val v = order(i)
        if (i > 0 && state(v) != state(order(i - 1))) d += 1
        dist(v) = d
        i += 1
      }
      dist
    }

    /** Reset every vertex the last call reached: one by one, or by a bulk
      * fill once the call reached more than n/4 vertices, where the scattered
      * writes would cost more than a sequential pass.
      */
    private def clear(): Unit = {
      if (tail > n / 4) {
        java.util.Arrays.fill(state, Undiscovered)
        java.util.Arrays.fill(sigma, 0.0)
        java.util.Arrays.fill(delta, 0.0)
      } else {
        var i = 0
        while (i < tail) {
          val v = order(i)
          state(v) = Undiscovered; sigma(v) = 0.0; delta(v) = 0.0
          i += 1
        }
      }
      tail = 0
    }
  }

  object Workspace {
    /** `state` of a vertex the BFS has not discovered. */
    private final val Undiscovered: Byte = -1
    /** The cone bit of `state`, above the two bits of `level mod 3`. */
    private final val Cone = 4

    /** `(l − 1) mod 3` for a level l mod 3 in {0, 1, 2}. */
    @inline private def below(l: Int): Int = if (l == 0) 2 else l - 1
  }

  /** Returns δ_{s•}(r) = `d`, or throws `ArithmeticException` naming (s, r)
    * if it is not finite.
    */
  private def requireFinite(s: Int, r: Int, d: Double): Double =
    if (java.lang.Double.isFinite(d)) d
    else throw new ArithmeticException(
      s"delta_$s($r) = $d is not finite: shortest-path counts overflow a Double")

  /** Throws `ArithmeticException` naming `what` and the first vertex whose
    * value is not finite.
    */
  private def requireFinite(values: Array[Double], what: => String): Unit = {
    var v = 0
    while (v < values.length) {
      if (!java.lang.Double.isFinite(values(v)))
        throw new ArithmeticException(
          s"$what($v) = ${values(v)} is not finite: shortest-path counts overflow a Double")
      v += 1
    }
  }

  /** Single-source shortest-path DAG (SPD) for unweighted graphs.
    *
    * @return (dist, sigma, order): BFS distances (−1 if unreachable — cannot
    *   happen on the connected graphs the paper assumes, but kept defensive),
    *   shortest-path counts σ_{s·}, and vertices in BFS visitation order.
    */
  def spd(g: CSRGraph, s: Int): (Array[Int], Array[Double], Array[Int]) = {
    g.requireVertex(s, "source s")
    val ws = new Workspace(g.n)
    ws.forward(g, s, -1)
    (ws.distances(), ws.sigma, java.util.Arrays.copyOf(ws.order, ws.tail))
  }

  /** Dependency scores δ_{s•}(v) of source `s` on every vertex v (Eq. 2/4),
    * by the full sweep on a fresh workspace. δ_{s•}(s) is 0 by definition.
    * Throws `ArithmeticException` if any score is not finite.
    */
  def dependency(g: CSRGraph, s: Int): Array[Double] = {
    g.requireVertex(s, "source s")
    val ws = new Workspace(g.n)
    ws.fullSweep(g, s)
    requireFinite(ws.delta, s"delta_$s")
    ws.delta
  }

  /** δ_{v•}(r): the quantity the MH acceptance ratio (Eq. 6/17) is built on,
    * read off the full sweep. This is the reference the cone sweep
    * `Workspace.dependencyOn` is checked against.
    */
  def dependencyOn(g: CSRGraph, v: Int, r: Int): Double =
    if (v == r) 0.0 else dependency(g, v)(r)

  /** Adds δ_{s•}(·) into `acc` for every source in `sources`, through one
    * workspace, and checks that the sums are finite.
    */
  private[graph] def accumulate(g: CSRGraph, sources: Iterator[Int]): Array[Double] = {
    val acc = new Array[Double](g.n)
    val ws = new Workspace(g.n)
    sources.foreach { s =>
      ws.sweep(g, s) { d =>
        var v = 0
        while (v < g.n) { acc(v) += d(v); v += 1 }
      }
    }
    requireFinite(acc, "betweenness partial sum BC")
    acc
  }

  /** Exact betweenness of every vertex, BC(v) = Σ_s δ_{s•}(v) (Eq. 3). */
  def bc(g: CSRGraph): Array[Double] = accumulate(g, Iterator.range(0, g.n))

  /** All-sources dependency column for one target r: δ_{v•}(r) for every v,
    * by the support test and the cone sweep through one workspace. Column sum
    * is BC(r). Used to compute exact π_r (Eq. 5) in tests/benches.
    */
  def dependencyColumn(g: CSRGraph, r: Int): Array[Double] =
    new Workspace(g.n).dependenciesOnTarget(g, Array.range(0, g.n), r)

  /** Eccentricity-based diameter (exact, all-sources BFS). */
  def diameter(g: CSRGraph): Int =
    (0 until g.n).map(s => spd(g, s)._1.max).max
}
