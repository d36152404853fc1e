// Package core implements the paper's primary contribution: the online
// reverse top-k RWR query algorithm (§4.2). A query runs in two steps:
//
//  1. Bracket the proximities from every node TO the query node, p_u(q):
//     with a backward local push from q (rwr.Push, Lofgren's primitive),
//     which leaves every row it never reached below its largest residue, or
//     with the transposed power method (Algorithm 2 / Theorem 2, package
//     rwr).
//  2. Screen node u against the indexed lower bound p̂_u(k): nodes with
//     p̂_u(k) > p_u(q) can never rank q in their top-k and are pruned; the
//     survivors ("candidates") are confirmed with the staircase upper
//     bound of Algorithm 3 or refined step-by-step (Algorithm 1's loop)
//     until their lower or upper bound decides membership (Algorithm 4). A
//     step is taken only when the ink it can move could let a bound decide
//     (refine); a candidate whose next step could not is settled on its own
//     proximity column instead, after the sweep (resolveExact): a forward
//     push from u, or a forward solve batched with the others.
//
// That is one loop, written once (pipeline.go). A Run tightens its bracket on
// p_·(q) in rounds; a Screen applies the prune and confirm tests — the only
// copy of them — to every row still open against each round's bracket; the
// rounds stop once nothing is open, the PMPN has converged, or the screen is
// final — no open row could change side at a smaller band — and
// Engine.finish refines what is left on the band the run stopped at (0 after
// convergence). Every entry point — the exact query, the anytime tier,
// Explain, the sharded coordinator (internal/shard) — is that loop under its
// own budget (the table on Run), and because the Screen's tests are
// monotone-safe they all reach the same hits and candidates. The runs of
// read-only engines start as a backward push and hand over to the power
// method only when the push grows expensive; update-mode and practical-mode
// runs step the power method to convergence, as the paper does.
//
// The paper screens every u; a Screen visits fewer rows when step 1 lets it
// (Screen.take). A row the push never reached has p_u(q) at most the push's
// largest residue, which its first round drives under every k-th lower bound
// a zero proximity does not already leave open; likewise a power iteration
// that converges inside q's backward ball (rwr.ToStepper.Rows) leaves p_u(q)
// exactly zero outside it. A zero proximity survives only where p̂_u(k) is
// itself within tieTol of zero — u reaches fewer than k nodes, so it ranks
// every node among its top k. A View keeps those rows per k
// (zeroBoundTable), and the Screen takes the push's touched rows (or the
// ball) ∪ the zero-bound rows: a handful in place of n, with the decisions
// and counters of the dense take, which could only have pruned the rest.
// Every row is taken by a Screen whose first round comes after a hand-over
// to the power method outside its ball, and by one whose engine came from
// NewEngine rather than a View (an update-mode engine owns its index and its
// commits move the bounds the table is derived from; a View's index is
// shared, so it is immutable). QueryStats.Screened reports the rows visited.
//
// The exact solves use the same two facts in the other direction. A read-only
// engine's fallback starts as a forward push from e_u (rwr.Push again, one
// type in two directions), which brackets the whole column p_u from the rows
// u's walks reach and decides most candidates on a web graph with no column;
// one whose push spreads too far is handed over to the slab. A slab column
// starts at e_u and after t forward sweeps is supported on u's forward ball of
// radius t (one ball type, rwr/ball.go: grown by in-neighbours from q for step
// 1, by out-neighbours from the open candidates here), so a slab sweeps the
// union of its candidates' forward balls, and the early-stop probe selects
// over those rows, until that union reaches half the graph
// (QueryStats.FallbackBallIters).
//
// In update mode, refinement results are committed back to the index
// (§4.2.3), tightening bounds for later queries.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// UpperBound implements Algorithm 3 (UBC): given the descending lower-bound
// list p̂^t_u(1:K), a query size k and the undistributed residue ink ‖r‖₁,
// it returns the tightest upper bound on pkmax_u obtainable by "pouring"
// the residue onto the top-k staircase (Eq. 16–18). Runs in O(k).
func UpperBound(phat []float64, k int, rnorm float64) float64 {
	if k <= 0 || k > len(phat) {
		panic(fmt.Sprintf("core: UpperBound k=%d outside [1,%d]", k, len(phat)))
	}
	if rnorm <= 0 {
		// No residue: the lower bound is already exact.
		return phat[k-1]
	}
	// z_j is the ink needed to raise the level to step k−j (Eq. 17).
	z := 0.0
	for j := 1; j <= k-1; j++ {
		// ∆_{k−j} = p̂(k−j) − p̂(k−j+1), Eq. 16 (0-based shift).
		delta := phat[k-j-1] - phat[k-j]
		zj := z + float64(j)*delta
		if z < rnorm && rnorm <= zj {
			// First line of Eq. 18: the ink levels out below step k−j.
			return phat[k-j-1] - (zj-rnorm)/float64(j)
		}
		z = zj
	}
	// Second line of Eq. 18: the whole staircase is submerged.
	return phat[0] + (rnorm-z)/float64(k)
}

// RunStats are the counters of a run's rounds (Run.Rounds), the part of its
// record QueryStats and AnytimeStats share.
type RunStats struct {
	// Query and K echo the inputs.
	Query graph.NodeID
	K     int
	// Rounds counts the run's screen advances.
	Rounds int
	// PMPNIters is the iteration count of the power method on p_·(q)
	// (Algorithm 2): 0 for a run the backward push ended alone, the
	// iterations after the hand-over for one that handed over (PMPNHandover),
	// and every iteration to convergence for an update-mode or practical-mode
	// engine's run (Run.Rounds).
	PMPNIters int
	// PMPNEdges is the number of edges the PMPN read: the backward push's
	// in-edges plus the power method's out-edges (m per dense iteration, the
	// ball's rows' out-degrees per ball iteration). Next to m it tells a
	// query that bracketed p_·(q) from a few rows around q from one that
	// swept the graph.
	PMPNEdges int
	// PMPNHandover says the run's backward push read its budget of edges
	// (m/pushBudgetDivisor) without stopping the run and handed over to the
	// power method (Run.Rounds).
	PMPNHandover bool
	// PMPNTail is the half-width of the band around the iterate that the
	// candidates were decided on: 0 when the PMPN converged, the error bound
	// τ widened by the converged vector's own ε(1−α)/α when the run stopped
	// on a final screen or with nothing open (Run.Rounds).
	PMPNTail float64
	// PMPNElapsed is the wall clock spent bracketing p_·(q).
	PMPNElapsed time.Duration
}

// QueryStats reports the per-query counters behind Figures 5–7.
type QueryStats struct {
	RunStats
	// PMPNSupport is the number of non-zero entries of the vector the run
	// stopped at: the rows the push pushed, or after the power method the
	// iterate's non-zeros — after convergence from e_q, the nodes with any
	// walk to q at all.
	PMPNSupport int
	// Screened is the number of rows the Screen visited when it took its rows
	// (Screen.take): every materialized row, or the rows the backward push
	// touched (q's backward ball, after a converged power iteration inside
	// it) plus the zero-bound rows.
	Screened int
	// Candidates counts nodes that survived the lower-bound screen against
	// the converged vector (they entered Algorithm 4's while loop).
	Candidates int
	// Hits counts candidates confirmed as results before any refinement
	// (exact-lower-bound or first upper-bound check) — Fig. 6's "hits".
	Hits int
	// Results is the size of the answer set.
	Results int
	// RefineSteps is the total number of BCA refinement iterations spent
	// across all candidates.
	RefineSteps int
	// ExactFallbacks counts candidates decided on their own proximity
	// column because no outcome of their next refinement step could have
	// decided them (refine): the step would move too little ink to close the
	// gap to either bound, or none at all (residue trapped below the
	// propagation threshold). Exact ties always end here, and on graphs
	// whose BCA states spread over most nodes so do most candidates. A
	// sweep's fallbacks are resolved together after it (resolveExact): by a
	// forward push each, then through forward SpMM slabs for those the push
	// hands over; each counts individually here.
	ExactFallbacks int
	// Committed counts refined states written back to the index (update
	// mode only).
	Committed int
	// Elapsed is total wall-clock time.
	Elapsed time.Duration
	// FallbackElapsed is the part of Elapsed spent resolving deferred
	// exact fallbacks: their forward pushes, and the forward SpMM slabs of
	// those the push hands over (resolveFallbacks).
	FallbackElapsed time.Duration
	// FallbackIters is the total number of forward power-method iterations
	// this query's exact fallbacks ran in slabs, and FallbackEarlyStops how
	// many of them were decided before a column converged because an error
	// band had already cleared the decision: the forward push's, or the slab
	// iterate's (resolveExact). FallbackEarlyStops < ExactFallbacks means
	// some of the query's fallbacks ran to convergence.
	FallbackIters      int
	FallbackEarlyStops int
	// FallbackPushEdges is the number of out-edges the fallbacks' forward
	// pushes read, those that decided and those that handed over to the
	// slab alike, and FallbackPushDecided how many fallbacks the push decided
	// with no slab column (their FallbackIters are 0; each is an early stop).
	FallbackPushEdges   int
	FallbackPushDecided int
	// FallbackBallIters is the part of FallbackIters swept over the
	// candidates' forward balls rather than all n rows (rwr/spmm.go).
	FallbackBallIters int
	// DecideElapsed is the part of Elapsed spent deciding candidates — the
	// Screen's passes plus the bound-refinement sweep (Algorithm 4) —
	// excluding the deferred-fallback resolution counted separately in
	// FallbackElapsed.
	DecideElapsed time.Duration
}

// Record appends to rec, as key/value pairs, the record a slow query is
// explained by: the run's counters and its decisions', each under its one log
// name, in one order — 15 pairs. The daemon's request log and slow log and
// rtkquery's stats: line all print it. It holds no timing (Phases has those),
// so two runs of one query give equal records.
func (s *QueryStats) Record(rec []any) []any {
	return append(rec,
		"pmpn_iters", s.PMPNIters,
		"pmpn_edges", s.PMPNEdges,
		"pmpn_handover", s.PMPNHandover,
		"pmpn_support", s.PMPNSupport,
		"pmpn_tail", s.PMPNTail,
		"screened", s.Screened,
		"rounds", s.Rounds,
		"candidates", s.Candidates,
		"refine_steps", s.RefineSteps,
		"fallbacks", s.ExactFallbacks,
		"fallback_iters", s.FallbackIters,
		"fallback_push_edges", s.FallbackPushEdges,
		"fallback_push_decided", s.FallbackPushDecided,
		"fallback_ball_iters", s.FallbackBallIters,
		"fallback_early_stops", s.FallbackEarlyStops,
	)
}

// Phases breaks the query wall clock into named phases for tracing; only
// phases that actually ran appear. Keys: "pmpn", "decide", "fallback".
func (s *QueryStats) Phases() map[string]time.Duration {
	p := make(map[string]time.Duration, 3)
	if s.PMPNElapsed > 0 {
		p["pmpn"] = s.PMPNElapsed
	}
	if s.DecideElapsed > 0 {
		p["decide"] = s.DecideElapsed
	}
	if s.FallbackElapsed > 0 {
		p["fallback"] = s.FallbackElapsed
	}
	return p
}

// Engine evaluates reverse top-k queries against a graph and its index.
// An Engine is NOT safe for concurrent use (its workspace pool is, but the
// query state is not). A no-update engine only reads its index, so any number
// of them may share one — a View hands them out. An update-mode engine is its
// index's one writer (see lbindex.Index): it owns the index, and nothing else
// may read or write it while the engine runs. Within a single query the engine
// can itself use multiple cores — see SetWorkers — without changing its
// answers.
type Engine struct {
	g      *graph.Graph
	idx    *lbindex.Index
	update bool
	// workers is the intra-query parallelism degree: the PMPN's dense sweep and
	// a screen's take off the index are sharded over row ranges, the refinement
	// sweep over its candidate list, each shard drawing a workspace from wsPool
	// — so engines cost no dense scratch until their first query.
	workers int
	wsPool  *bca.Pool
	// tieTol absorbs floating-point noise on the membership boundary.
	// Whenever q is exactly the k-th ranked node of u — which holds for
	// every rank-k member of the answer — p_u(q) equals pkmax_u in real
	// arithmetic, and the PMPN estimate of p_u(q) differs from the
	// power-method pkmax by up to ≈ε. Comparisons therefore treat values
	// within tieTol as equal; gaps below tieTol are beneath the solvers'
	// own precision.
	tieTol float64
	// practical selects the paper's literal decision rule for stalled
	// candidates; see SetPracticalDecisions.
	practical bool
	// probeBuf is the n-vector resolveExact's early-stop probe reads
	// fallback columns into; allocated by the first fallback that probes.
	probeBuf []float64
	// push is the engine's push scratch, allocated by its first use: every
	// run of this engine that does not converge starts as a backward push
	// with it, and every exact fallback of a no-update engine as a forward
	// push (pushColumn) — after the refinement sweep has read the run's
	// estimate, so the two never overlap. pushVals holds the estimates a
	// fallback's rounds select κ from.
	push     *rwr.Push
	pushVals []float64
	// zeroBound is the owning View's per-k table, which this engine's screens
	// read in place of the index (Screen.take). Nil on an engine made by
	// NewEngine: an update-mode commit moves the bounds the table is derived
	// from, so such an engine's screens always take every row.
	zeroBound *zeroBoundTable
	// record is set while Explain runs: the listener its pipeline reports
	// every decision to.
	record recorder
	// nextRank lets refine confirm by the next-rank rule
	// (confirmedByNextRank); finish sets it for the run it finishes.
	nextRank bool
}

// SetPracticalDecisions toggles the paper-literal decision mode.
//
// Algorithm 4 as printed has no exit for a candidate whose membership is an
// exact tie (p_u(q) = pkmax_u): the lower bound converges to p_u(q) from
// below and the upper bound from above, so neither branch of the loop ever
// fires before BCA fully drains — and once no node holds ≥ η residue the
// paper's refinement step is a no-op. Any implementation must therefore
// break the loop somehow. This engine offers two policies:
//
//   - exact (default): decide stalled candidates with one power-method
//     computation (and commit the now-exact state to the index). Answers
//     equal brute force unconditionally.
//   - practical: decide candidates refinement leaves open (refine) by the
//     standing while-loop condition — p_u(q) ≥ p̂^t_u(k) means u stays in
//     the answer. This is the only reading under which the paper's
//     reported per-candidate refinement costs are attainable, and it can
//     only ever ADD near-boundary nodes (whose gap is below the bound
//     tightness reachable) to the exact answer. That tightness is set by
//     η or by the index's rounding slack, whichever is looser; at
//     ω = 1e-4 it is the slack, which leaves so many candidates open at
//     k = K that Fig. 9's Jaccard falls to about 0.14, and stepping them
//     until their residue drains changes none of them (REPRODUCTION.md).
func (e *Engine) SetPracticalDecisions(on bool) { e.practical = on }

// NewEngine creates a query engine. update selects whether refinements are
// committed back to the index (§4.2.3) — the "update" series of Fig. 5/7. An
// update-mode engine owns idx: give it an index no one else uses, or a Clone.
// g must be the graph the index is valid for (lbindex.Index.Graph), or a graph
// equal to it: an index answers wrongly, and silently, for any other.
func NewEngine(g *graph.Graph, idx *lbindex.Index, update bool) (*Engine, error) {
	if err := checkPair(g, idx); err != nil {
		return nil, err
	}
	return newEngine(g, idx, update), nil
}

// newEngine is NewEngine on a pair checkPair accepted.
func newEngine(g *graph.Graph, idx *lbindex.Index, update bool) *Engine {
	return &Engine{
		g:       g,
		idx:     idx,
		update:  update,
		workers: 1,
		wsPool:  bca.NewPool(g.N()),
		tieTol:  defaultTieTol,
	}
}

// checkPair refuses a graph that is neither the index's own graph nor equal
// to it. The pointer comparison comes first: every index the daemon
// publishes carries the graph it is served with, so only a pair assembled
// from two sources pays the O(m) comparison.
func checkPair(g *graph.Graph, idx *lbindex.Index) error {
	if ig := idx.Graph(); g != ig && !g.Equal(ig) {
		return fmt.Errorf("core: the graph (%d nodes, %d edges) is not the one the index was built on (%d nodes, %d edges)", g.N(), g.M(), ig.N(), ig.M())
	}
	return nil
}

// SetWorkers sets the intra-query parallelism degree: how many goroutines
// one Query spreads its PMPN power iteration and its candidate-decision loop
// across (≤ 0 selects GOMAXPROCS; the default is 1, fully sequential).
//
// The answer set is identical for every worker count: the sharded PMPN
// computes every row in the same accumulation order and reduces its
// convergence check at a fixed block granularity, and each candidate's
// decision depends only on that candidate's own index entry, never on what
// another shard decided.
func (e *Engine) SetWorkers(n int) { e.workers = vecmath.Workers(n) }

// Workers returns the configured intra-query parallelism degree.
func (e *Engine) Workers() int { return e.workers }

// Query runs Algorithm 4 (OQ) — the pipeline's rounds until nothing is open,
// the screen is final or the PMPN has converged, and the finish: it returns
// every node u with p_u(q) ≥ pkmax_u, in ascending node order, plus the
// per-query statistics.
func (e *Engine) Query(q graph.NodeID, k int) ([]graph.NodeID, QueryStats, error) {
	return e.query(q, k, e.converges())
}

// query is Query with the run chosen: to convergence, or push-started.
func (e *Engine) query(q graph.NodeID, k int, converge bool) ([]graph.NodeID, QueryStats, error) {
	r, err := e.start(q, k, converge)
	if err == nil {
		err = r.Rounds(0)
	}
	if err != nil {
		return nil, QueryStats{RunStats: RunStats{Query: q, K: k}}, err
	}
	return e.finish(r, r.screens[0])
}

// start validates a query and starts its run over one screen of the engine's
// index, read through the owning View's table when there is one; converge
// selects the run to convergence (Run.converge) over the push-started one.
func (e *Engine) start(q graph.NodeID, k int, converge bool) (*Run, error) {
	if int(q) < 0 || int(q) >= e.g.N() {
		return nil, fmt.Errorf("core: query node %d out of range [0,%d)", q, e.g.N())
	}
	if k <= 0 || k > e.idx.K() {
		return nil, fmt.Errorf("core: k=%d outside [1,%d] supported by the index", k, e.idx.K())
	}
	s := &Screen{idx: e.idx, k: k, tol: e.tieTol, table: e.zeroBound, record: e.record, workers: e.workers}
	if !converge && e.push == nil {
		e.push = rwr.NewPush(e.g.N())
	}
	return newRun(e.g, q, e.idx.Options().RWR, e.workers, nil, e.push, converge, s)
}

// converges reports whether the engine's runs converge before they screen:
// an update-mode or practical-mode engine's, whose commits and paper-literal
// rule are defined on the converged vector.
func (e *Engine) converges() bool { return e.update || e.practical }

// decideSet refines the listed candidates — a screen's survivors, each with a
// band [c − band, c + band] around p_u(q), c = pq[u] + shift, inside [p̂(k) − tieTol,
// UB − tieTol); an empty list is no candidates — sharded across the engine's
// workers, and resolves the ones refinement leaves open. Outcomes are identical at any worker count: each shard runs the same
// loop over its segment with a private workspace and counters, answers
// concatenate in segment order and counters merge by addition. In update mode
// each shard commits only the rows of its own segment, so the shards write
// distinct rows of the engine's own index and need no lock.
//
// Candidates whose next refinement step could not decide them (refine) are
// deferred by the sweep (per shard, in segment order) and resolved afterwards
// in one pass of exact solves on the coordinating goroutine (resolveExact: a
// forward push each, SpMM slabs for those it hands over) — same pending list,
// same order, whatever the worker count, so the sequential and sharded
// engines still make bit-identical decisions and commits. q is the
// query node pq was computed for; resolution reads each deferred candidate's
// column at it (resolveExact). The sweep stays on this goroutine under
// Explain (the recorder's) and for fewer than two shards' worth of candidates.
func (e *Engine) decideSet(q graph.NodeID, pq []float64, shift, band float64, k int, list []graph.NodeID, stats *QueryStats) ([]graph.NodeID, error) {
	type shard struct {
		results []graph.NodeID
		pend    []pendingFallback
		stats   QueryStats
	}
	workers := min(e.workers, len(list)/sweepShare)
	if e.record != nil {
		workers = 1
	}
	segs := vecmath.Split(len(list), workers)
	shards := make([]shard, len(segs))
	sweep := func(sh *shard, seg vecmath.Range) {
		ws := e.wsPool.Get()
		defer e.wsPool.Put(ws)
		for _, u := range list[seg.Lo:seg.Hi] {
			if e.decide(ws, u, k, pq[u]+shift, band, &sh.stats, &sh.pend) {
				sh.results = append(sh.results, u)
			}
		}
	}
	vecmath.Parallel(len(segs), func(si int) { sweep(&shards[si], segs[si]) })
	var results []graph.NodeID
	var pend []pendingFallback
	for si := range shards {
		sh := &shards[si]
		results = append(results, sh.results...)
		pend = append(pend, sh.pend...)
		stats.RefineSteps += sh.stats.RefineSteps
		stats.ExactFallbacks += sh.stats.ExactFallbacks
		stats.Committed += sh.stats.Committed
	}
	if len(pend) > 0 {
		fbStart := time.Now()
		fb, err := e.resolveFallbacks(pend, q, k, stats)
		stats.FallbackElapsed += time.Since(fbStart)
		if err != nil {
			return nil, err
		}
		results = append(results, fb...)
	}
	return results, nil
}

// decide is Algorithm 4's while loop for one candidate u the Screen left
// open — p_u(q), within band of the iterate's xv, is neither under u's k-th
// lower bound nor over its staircase upper bound: refine it, or defer it. It
// returns whether refinement made u a member. ws is the BCA scratch to refine
// with, one per sweep shard (stats and pend must likewise be private to the
// calling shard). A candidate refine leaves undecided is NOT decided here: it
// is appended to *pend for the caller to batch-resolve with exact solves after
// the sweep (resolveFallbacks), and reported as not a member.
func (e *Engine) decide(ws *bca.Workspace, u graph.NodeID, k int, xv, band float64, stats *QueryStats, pend *[]pendingFallback) bool {
	rho := e.idx.ResidueNorm(u) + e.idx.RoundingSlack(u)
	ink, t := e.idx.BatchInk(u, e.idx.Options().BCA.Eta)
	r := e.refine(ws, u, k, xv-band, xv+band, e.idx.PHatRow(u), rho, ink, t)
	stats.RefineSteps += r.steps
	if !r.decided {
		// Exact fallback: the node needs p_u, its entry at q compared against
		// its own k-th largest. The vector depends only on u — not on the
		// query — so the sweep DEFERS it: the caller collects every open
		// candidate and resolves them after the sweep (resolveFallbacks), each
		// by a forward push from u and, for those the push hands over, through
		// forward SpMM slabs, where B columns share each CSR traversal instead
		// of streaming the matrix from RAM B separate times. Resolution reads
		// nothing the sweep changes, so deferral changes no decision and no
		// committed state. The refined state is NOT committed here even in
		// update mode: resolution commits the strictly better exact state
		// instead.
		stats.ExactFallbacks++
		*pend = append(*pend, pendingFallback{u: u, puq: xv, band: band + 2*convergedTail(e.idx.Options().RWR), nextT: r.t + r.steps + 1, steps: r.steps})
		return false
	}
	if r.steps > 0 && e.update {
		e.idx.Commit(u, r.st, bca.TopK(r.st, e.idx.HubMatrix(), ws, e.idx.K()))
		stats.Committed++
	}
	if e.record != nil {
		how := OutcomeRefinedOut
		switch {
		case r.byNextRank:
			how = OutcomeNextRank
		case r.member:
			how = OutcomeRefinedIn
		}
		e.record(u, xv-band, xv+band, how, r.member, r.steps)
	}
	return r.member
}

// refinement is what refine reports about one candidate.
type refinement struct {
	// decided says a bound settled the candidate (or, for one left open,
	// practical mode did), member which way, byNextRank that the next-rank
	// rule confirmed it. A candidate is left open when its next step could
	// not have settled it.
	decided, member, byNextRank bool
	steps                       int        // BCA steps taken
	st                          *bca.State // the refined copy of u's state; nil unless refine copied it to step
	t                           int        // iterations u's stored state had run before these steps
}

// refine is the inner while loop of Algorithm 4 for a candidate its indexed
// bounds leave open: phat is u's indexed row, rho its residue plus rounding
// slack, and ink and t its stored state's batch ink and iteration count
// (lbindex.Index.BatchInk), and p_u(q) lies in the band [lo, hi] with
// p̂(k) − tieTol ≤ lo ≤ hi < UpperBound(p̂, k, ρ) − tieTol (lo = hi = p_u(q)
// after a converged PMPN). A bound decides u when the whole band clears it:
// the lower bound prunes on hi, the upper bound confirms on lo — the
// staircase at rank k within tieTol, or at rank k+1 strictly
// (confirmedByNextRank), which the Screen does not test, so refine tests it
// on the indexed bounds before any step, and reads p̂′ one entry deeper after
// each. It
// advances a copy of u's BCA state until a bound decides, but takes a step —
// the first one and the deep copy before it included — only if that step
// could decide. A step at threshold η takes exactly B = Σ{r(v) : r(v) ≥ η}
// (bca.State.BatchInk) out of the residue and adds at most B to p^t, and the
// slack never shrinks; so after it ρ′ ≥ ρ − B, p̂′ ≥ p̂ entrywise, and
//
//	UB′   = UpperBound(p̂′, k, ρ′) ≥ UpperBound(p̂, k, ρ − B)
//	p̂′(k) ≤ UpperBound(p̂, k, B)
//
// and the first holds at rank k+1 too. If both ranks' bounds still clear lo
// and the second still does not clear hi, no bound can decide u whatever the
// step does, and u is left open at once for the exact solve. That solve is
// not cheap: on the benchmark's web fixture a slab column cost about 3.5 ms
// against about 0.24 ms a refine step, and the forward push that now decides
// most web fallbacks about half the column's time — but a step that cannot
// decide is wasted whatever it costs. B = 0 (all residue below η, the
// step a no-op) is the degenerate instance: both right-hand sides are then
// the bounds that just failed, so refine never copies or steps such a state —
// which is why the index may store it summarized, without R and W
// (bca.State.Summarized). Residue below η the index folds into ρ (see
// lbindex.Index.summarize): no step moves it, so ρ′ ≥ ρ − B still holds.
// The test is a pure function of (u's state, k,
// lo, hi), so every sweep order and worker count takes the same steps.
// cfg.MaxIters is the safety net against a state that never drains. In
// practical mode (SetPracticalDecisions) a candidate left open is a member.
func (e *Engine) refine(ws *bca.Workspace, u graph.NodeID, k int, lo, hi float64, phat []float64, rho, ink float64, t int) refinement {
	cfg := e.idx.Options().BCA
	hm := e.idx.HubMatrix()
	r := refinement{t: t}
	// Only the first k entries feed the bound checks, and the (k+1)-th the
	// next-rank rule when the index holds one; the full-K column is
	// recomputed once at commit time.
	depth := min(k+1, e.idx.K())
	if e.nextRank && confirmedByNextRank(phat, k, rho, lo) { // the screen reads rank k only
		r.decided, r.member, r.byNextRank = true, true, true
		return r
	}
	for r.steps < cfg.MaxIters && stepCanDecide(phat, k, rho, ink, lo, hi, e.tieTol, e.nextRank) {
		if r.st == nil {
			r.st = e.idx.StateSnapshot(u)
		}
		bca.Step(e.g, r.st, hm, cfg, ws)
		r.steps++
		phat = bca.TopK(r.st, hm, ws, depth)
		if prunedByLowerBound(hi, phat[k-1], e.tieTol) {
			r.decided = true
			return r
		}
		// At ρ = 0 the bound is p̂(k) itself, which the band cleared only if lo does.
		rho = r.st.RNorm + e.idx.StateSlack(r.st)
		if lo >= UpperBound(phat, k, rho)-e.tieTol {
			r.decided, r.member = true, true
			return r
		}
		if e.nextRank && confirmedByNextRank(phat, k, rho, lo) {
			r.decided, r.member, r.byNextRank = true, true, true
			return r
		}
		ink = r.st.BatchInk(cfg.Eta)
	}
	if e.practical {
		// Paper-literal resolution: the candidate is still inside the while
		// loop (p_u(q) ≥ p̂^t_u(k)), so it stays in the answer.
		r.decided, r.member = true, true
	}
	return r
}

// stepCanDecide is refine's one-step test: whether a BCA step that moves ink
// out of a residue-plus-slack of rho could let the upper bound admit the
// candidate's band [lo, hi] — at rank k or, by the next-rank rule, at rank
// k+1 — or the lower bound exclude it (see refine for the bounds; the
// staircase argument for UB′ holds at every rank).
func stepCanDecide(phat []float64, k int, rho, ink, lo, hi, tieTol float64, nextRank bool) bool {
	return lo >= UpperBound(phat, k, rho-ink)-tieTol ||
		nextRank && confirmedByNextRank(phat, k, rho-ink, lo) ||
		prunedByLowerBound(hi, UpperBound(phat, k, ink), tieTol)
}

// confirmedByNextRank is refine's second confirming rule: u ranks q among its
// top k when p_u(q) lies strictly above an upper bound on u's (k+1)-th largest
// proximity — UpperBound(p̂, k+1, ρ), the staircase at rank k+1 — since then
// at most k nodes can reach p_u(q), q among them, so p_u(q) ≥ pkmax_u. lo is
// the bottom of p_u(q)'s band. The comparison is strict: at equality q may
// share rank k+1 with a node below the k-th. It needs a (k+1)-th entry, so
// it never fires at k = K or on a row of k entries.
//
// Only the runs that start as a backward push use it (Engine.nextRank): the
// read-only exact queries. A run that converges keeps Algorithm 4's own loop —
// an update-mode engine would commit a refined state for a candidate the
// exact fallback otherwise commits exactly, which tightens the index for
// every later query, and practical-mode runs reproduce the paper's costs.
func confirmedByNextRank(phat []float64, k int, rho, lo float64) bool {
	return k < len(phat) && lo > UpperBound(phat, k+1, rho)
}

// prunedByLowerBound is Algorithm 4's first screen: u cannot rank q in its
// top-k when p_u(q) lies below u's k-th lower bound by more than tieTol. It
// is the one place that comparison is written — the Screen and refine prune
// by it, and the zero-bound table (zeroBoundTable) is the set of rows it lets
// through at puq = 0 — so a Screen's row list cannot drift from the dense
// take it stands in for.
func prunedByLowerBound(puq, lb, tieTol float64) bool {
	return puq < lb-tieTol
}

// pendingFallback is one candidate refine left open — no outcome of its next
// step could have decided it: u must be resolved by the exact power method.
// The would-be next BCA iteration number is captured at deferral time so
// resolution needs nothing but u's forward iteration. puq is the PMPN
// iterate's x[u], and band a half-width that puts the converged column's
// entry at q inside [puq − band, puq + band]: the run's band (Run.Rounds)
// plus 2ε(1−α)/α. p_u(q) lies within τ + ε(1−α)/α of puq — the run's band
// after a final stop, and after convergence, whose band is 0, within the
// PMPN's own ε(1−α)/α — and the converged column's entry within ε(1−α)/α of
// p_u(q).
type pendingFallback struct {
	u     graph.NodeID
	puq   float64
	band  float64
	nextT int
	steps int // refinement steps taken before deferral, for Explain
}

// fallbackOutcome is how resolveExact decided one deferred candidate.
type fallbackOutcome struct {
	member    bool
	iters     int  // forward iterations the candidate's slab column ran
	early     bool // decided before a column converged: by the push or the probe
	pushed    bool // decided by the forward push, with no column
	pushEdges int  // out-edges the forward push read
}

// resolveFallbacks decides every candidate one sweep of query q deferred,
// returning the members. Runs on the coordinating goroutine after the
// decision sweep.
func (e *Engine) resolveFallbacks(pend []pendingFallback, q graph.NodeID, k int, stats *QueryStats) ([]graph.NodeID, error) {
	out, ballIters, err := e.resolveExact(pend, q, k)
	if err != nil {
		return nil, err
	}
	stats.FallbackBallIters += ballIters
	if e.update {
		stats.Committed += len(pend) // every resolved column commits its exact state
	}
	var results []graph.NodeID
	for i, o := range out {
		stats.FallbackIters += o.iters
		stats.FallbackPushEdges += o.pushEdges
		if o.early {
			stats.FallbackEarlyStops++
		}
		if o.pushed {
			stats.FallbackPushDecided++
		}
		if o.member {
			results = append(results, pend[i].u)
		}
		if pf := pend[i]; e.record != nil {
			e.record(pf.u, pf.puq-pf.band, pf.puq+pf.band, OutcomeFallback, o.member, pf.steps)
		}
	}
	return results, nil
}

// sweepShare is the fewest candidates a refinement-sweep shard is started for:
// a shard costs one goroutine and one BCA workspace, which pays from about
// eight candidates; a list under two shares stays on the calling goroutine.
const sweepShare = 8

// spmmChunkWidth caps how many proximity columns share one SpMM slab. The
// slab costs 2·n·width float64s, so an unbounded batch on a large graph
// would trade the cache-residency the batching exists for against slab
// size; 16 columns keeps the working set tight while amortizing the CSR
// traffic 16 ways.
const spmmChunkWidth = 16

// The early-stop probe looks at a fallback column on a fixed geometric
// schedule: first once the column's error band τ is below probeFirstTail,
// then each time τ has fallen by probeTailRatio (≈ every 9 iterations at
// α = 0.15). One look is an O(n log k) selection, about one sweep's worth
// of work against the nine sweeps between two looks, and no look before
// τ ≤ 1e-2 could decide anything but a self-candidate.
const (
	probeFirstTail = 1e-2
	probeTailRatio = 4
)

// The forward push of a no-update engine's exact fallback (resolveExact)
// runs rounds from r_max = fallbackPushFirst, each dividing it by
// fallbackPushRatio, and hands its column over to the slab once its first
// round touches more than n/fallbackPushRowDivisor rows or its rounds have
// read fallbackPushBudget·m edges. On the benchmark's web fixture a decided
// column reads 45k edges at the median and 4.3·m at most (a 4·m budget left 6
// of web-cold's 236 to the slab after 1.8M wasted edges); no social column can
// be decided, even uncapped, and each passes n/8 rows within about 690 edges.
const (
	fallbackPushFirst      = 1e-3
	fallbackPushRatio      = 4
	fallbackPushRowDivisor = 8
	fallbackPushBudget     = 6
)

// resolveExact decides every candidate query q's sweep deferred, under the
// oracle's membership rule read off u's proximity column p_u itself: u is a
// member iff x*[q] ≥ κ* − tieTol, κ* the k-th largest entry of x* = p_u over
// v ≠ q (columnMember; the same set as rwr.ReverseTopK's
// x[q] ≥ pkmax(u) − tieTol). The rule asks nothing of the PMPN, so a
// candidate decided on a band (a final stop, Run.Rounds) resolves as one
// decided on the converged vector.
//
// A no-update engine first runs each candidate as a forward push from e_u
// (rwr.Push; pushColumn), which after each round holds est ≤ x* ≤ est + R
// elementwise, R = ‖r‖₁. κ is monotone in the entries, so κ* lies in
// [κ(est), κ(est) + R], and x*[q] in [max(est[q], lo), min(est[q] + R, hi)]
// with [lo, hi] the PMPN's band (pendingFallback); columnMember decides the
// moment those two brackets separate, with no column at all. A push that
// grows expensive (the constants above) hands its candidate over to the
// slab, which starts over from e_u.
//
// The slab is the forward power iteration: one column per candidate left,
// in forward SpMM slabs of at most spmmChunkWidth, in deferral order, and
// every column that runs to convergence is rwr.ProximityVector's bit for bit.
// The slabs run one after another on the calling goroutine whatever the
// engine's worker count; each sweeps its columns' forward ball with the push
// kernel (rwr/spmm.go, rwr/spmmfwd.go). Between iterations a no-update
// engine's probe reads the iterate x^t, which brackets every entry of x*
// within the elementwise band τ_t = r_t·(1−α)/α (rwr.ColumnProbe), and
// decides the candidate the moment the same two brackets — now symmetric,
// [L, U] = [max(x[q] − τ, lo), min(x[q] + τ, hi)] against κ ± τ — separate
// (Fujiwara et al.'s bound-driven termination, PAPERS.md):
//
//	L ≥ κ + τ − tieTol  ⇒ member:     x*[q] ≥ L ≥ κ + τ − tieTol ≥ κ* − tieTol;
//	U < κ − τ − tieTol  ⇒ non-member: x*[q] ≤ U < κ − τ − tieTol ≤ κ* − tieTol;
//
// both the converged decision, whatever the PMPN's precision: a wide band
// only leaves the column's own bracket to decide. q is left out of κ because
// nearly half of all fallbacks are exact ties — q IS u's k-th node and the
// gap to pkmax is ≈1e-15 (ROADMAP.md has the distribution) — where a band
// around the k-th entry itself can never close above tieTol, while the
// (k+1)-th entry separates from x[q] early.
//
// In update mode there is neither push nor probe: each solved vector is
// committed as a fully drained exact state (all ink retained, zero residue)
// so no future query ever spends work on that node again — this is what
// makes the update curve of Fig. 7/8 flatten — and that needs the converged
// vector.
func (e *Engine) resolveExact(pend []pendingFallback, q graph.NodeID, k int) (out []fallbackOutcome, ballIters int, err error) {
	out = make([]fallbackOutcome, len(pend))
	slab := make([]int, 0, len(pend)) // positions in pend the push left to the slab
	for i := range pend {
		if !e.update {
			if out[i], err = e.pushColumn(pend[i], q, k); err != nil {
				return nil, 0, err
			}
			if out[i].pushed {
				continue
			}
		}
		slab = append(slab, i)
	}
	for lo := 0; lo < len(slab); lo += spmmChunkWidth {
		chunk := slab[lo:min(lo+spmmChunkWidth, len(slab))]
		origins := make([]graph.NodeID, len(chunk))
		// nextProbe[i]: look at column i once its tail is at most this.
		nextProbe := make([]float64, len(chunk))
		for i, at := range chunk {
			origins[i] = pend[at].u
			nextProbe[i] = probeFirstTail
		}
		var probe rwr.ColumnProbe
		if !e.update {
			if e.probeBuf == nil {
				e.probeBuf = make([]float64, e.g.N())
			}
			probe = func(i, iter int, tail float64, read func([]float64) []graph.NodeID) bool {
				if tail > nextProbe[i] {
					return false
				}
				nextProbe[i] = tail / probeTailRatio
				// A slab still inside its forward ball reads the ball's rows
				// only: x^t is zero elsewhere — at q too, if q is not one of
				// them — and TopKValues pads a short list with the zeros left
				// out. The entries are packed to the front for the selection;
				// rows ascend, so slot at never overtakes entry rows[at].
				vals, xq := e.probeBuf, 0.0
				if rows := read(vals); rows == nil {
					xq = vals[q]
				} else {
					for at, u := range rows {
						if u == q {
							xq = vals[u]
						}
						vals[at] = vals[u]
					}
					vals = vals[:len(rows)]
				}
				pf := pend[chunk[i]]
				member, decided := columnMember(vals, xq, k, tail, tail, pf.puq-pf.band, pf.puq+pf.band, e.tieTol)
				if decided {
					o := &out[chunk[i]]
					o.member, o.iters, o.early = member, iter, true
				}
				return decided
			}
		}
		var colErr error
		swept, err := rwr.ProximityVectorBatchFunc(e.g, origins, e.idx.Options().RWR, probe, func(i int, res rwr.Result, rerr error) {
			if rerr != nil {
				if colErr == nil {
					colErr = rerr
				}
				return
			}
			member, _ := columnMember(res.Vector, res.Vector[q], k, 0, 0, math.Inf(-1), math.Inf(1), e.tieTol)
			o := &out[chunk[i]]
			o.member, o.iters = member, res.Iterations
			if e.update {
				exact := &bca.State{
					Origin: origins[i],
					T:      pend[chunk[i]].nextT,
					RNorm:  0,
					W:      vecmath.GatherSparse(res.Vector, 0),
				}
				e.idx.Commit(origins[i], exact, vecmath.TopKValues(res.Vector, e.idx.K()))
			}
		})
		if err != nil {
			return nil, 0, err
		}
		if colErr != nil {
			return nil, 0, colErr
		}
		ballIters += swept
	}
	return out, ballIters, nil
}

// pushColumn runs candidate pf's forward push (see resolveExact) in rounds
// until columnMember decides it on the push's bracket, or the push grows
// expensive and the candidate is left to the slab (pushed false). The scratch
// is the engine's own (Engine.push), reset through its touched list, so a
// push allocates nothing of size n.
func (e *Engine) pushColumn(pf pendingFallback, q graph.NodeID, k int) (fallbackOutcome, error) {
	if e.push == nil {
		e.push = rwr.NewPush(e.g.N())
	}
	p := e.push
	if err := p.Start(e.g, pf.u, e.idx.Options().RWR, true); err != nil {
		return fallbackOutcome{}, err
	}
	budget, rows := fallbackPushBudget*e.g.M(), e.g.N()/fallbackPushRowDivisor
	for rmax := fallbackPushFirst; ; rmax /= fallbackPushRatio {
		if !p.Run(rmax, budget, rows) {
			return fallbackOutcome{pushEdges: p.Edges()}, nil
		}
		rows = e.g.N()
		est, vals := p.Est(), e.pushVals[:0]
		for _, v := range p.Touched() {
			vals = append(vals, est[v])
		}
		e.pushVals = vals
		if member, decided := columnMember(vals, est[q], k, 0, p.ResidualL1(), pf.puq-pf.band, pf.puq+pf.band, e.tieTol); decided {
			return fallbackOutcome{member: member, early: true, pushed: true, pushEdges: p.Edges()}, nil
		}
	}
}

// columnMember applies resolveExact's rule to a column x of u whose
// converged x* lies elementwise in [x − below, x + above], xq its entry at
// the query node (vals may be x's non-zero entries only, or all of it):
// whether u ranks q among its top k — x*[q] ≥ κ* − tieTol — and whether the
// evidence decides it. x*[q] lies in [xq − below, xq + above] and inside
// [lo, hi] (the PMPN's band, or ±Inf), κ* in [κ − below, κ + above]. At
// below = above = 0 with no band it always decides.
func columnMember(vals []float64, xq float64, k int, below, above, lo, hi, tieTol float64) (member, decided bool) {
	top := vecmath.TopKValues(vals, k+1)
	kappa := top[k-1]
	if xq >= kappa {
		kappa = top[k] // q is one of the k largest: leave it out
	}
	switch {
	case max(xq-below, lo) >= kappa+above-tieTol:
		return true, true
	case min(xq+above, hi) < kappa-below-tieTol:
		return false, true
	}
	return false, false
}

// BruteForce answers a reverse top-k query by computing the exact proximity
// vector of every node (the BF method of §3), under the engine's membership
// rule (p_u(q) ≥ pkmax_u − defaultTieTol). It is the correctness oracle for
// the engine and the cost yardstick of Fig. 8. workers ≤ 0 selects
// GOMAXPROCS.
func BruteForce(g *graph.Graph, q graph.NodeID, k int, p rwr.Params, workers int) ([]graph.NodeID, error) {
	if int(q) < 0 || int(q) >= g.N() {
		return nil, fmt.Errorf("core: query node %d out of range [0,%d)", q, g.N())
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	cols, err := rwr.ProximityMatrix(g, p, workers)
	if err != nil {
		return nil, err
	}
	return rwr.ReverseTopK(cols, rwr.KthColumns(cols, k), q, defaultTieTol), nil
}
