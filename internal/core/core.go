// Package core implements the paper's primary contribution: the online
// reverse top-k RWR query algorithm (§4.2). A query runs in two steps:
//
//  1. Compute the exact proximities from every node TO the query node with
//     the transposed power method (Algorithm 2 / Theorem 2, package rwr).
//  2. Screen node u against the indexed lower bound p̂_u(k): nodes with
//     p̂_u(k) > p_u(q) can never rank q in their top-k and are pruned; the
//     survivors ("candidates") are confirmed with the staircase upper
//     bound of Algorithm 3 or refined step-by-step (Algorithm 1's loop)
//     until their lower or upper bound decides membership (Algorithm 4). A
//     step is taken only when the ink it can move could let a bound decide
//     (refine); a candidate whose next step could not is settled by one
//     exact forward solve instead, batched after the sweep (resolveExact).
//
// That is one loop, written once (pipeline.go). A Run steps the package's one
// PMPN in rounds; a Screen applies the prune and confirm tests — the only copy
// of them — to every row still open against each round's iterate and its
// error band; Engine.finish refines what the τ = 0 screen of the converged
// vector leaves. Every entry point — the exact query, the anytime tier and its
// escalation, Explain, the sharded coordinator (internal/shard) — is that loop
// under its own stop rule (the table on Run), and because the Screen's tests
// are monotone-safe they all reach the same hits, candidates and counters.
//
// The paper screens every u; a Screen visits fewer rows when step 1 lets it
// (Screen.take). If the PMPN has converged inside q's backward ball
// (rwr.ToStepper.Rows) by the Screen's first round, p_u(q) is exactly zero
// outside the ball, and a zero proximity survives only where p̂_u(k) is itself
// within tieTol of zero — u reaches fewer than k nodes, so it ranks every node
// among its top k. A View keeps those rows per k (zeroBoundTable), and the
// Screen takes ball ∪ zero-bound rows: a handful in place of n, with the
// decisions and counters of the dense take, which could only have pruned the
// rest. Every row is taken by a Screen whose first round comes before
// convergence or after the PMPN left the ball, and by one whose engine came
// from NewEngine rather than a View (an update-mode engine owns its index and
// its commits move the bounds the table is derived from; a View's index is
// shared, so it is immutable).
// QueryStats.Screened reports the rows visited.
//
// The exact solves use the same fact in the other direction (one ball type,
// rwr/ball.go: grown by in-neighbours from q for step 1, by out-neighbours from
// the open candidates here). A fallback column starts at e_u and after t
// forward sweeps is supported on u's forward ball of radius t, so a slab sweeps
// the union of its candidates' forward balls, and the early-stop probe selects
// over those rows, until that union reaches half the graph
// (QueryStats.FallbackBallIters).
//
// In update mode, refinement results are committed back to the index
// (§4.2.3), tightening bounds for later queries.
package core

import (
	"fmt"
	"runtime"
	"sync"
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

// QueryStats reports the per-query counters behind Figures 5–7.
type QueryStats struct {
	// Query and K echo the inputs.
	Query graph.NodeID
	K     int
	// PMPNIters is the iteration count of the exact proximity-to-query
	// computation (Algorithm 2).
	PMPNIters int
	// PMPNSupport is the number of non-zero entries of that vector: the
	// nodes with any walk to q at all. Next to PMPNIters it tells a
	// 40-iteration whole-graph solve from a 4-iteration one over q's
	// three-node backward ball.
	PMPNSupport int
	// Screened is the number of rows the Screen visited when it took its rows
	// (Screen.take): every materialized row, or q's backward ball plus the
	// zero-bound rows.
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
	// ExactFallbacks counts candidates decided by an exact power-method
	// computation because no outcome of their next refinement step could
	// have decided them (refine): the step would move too little ink to
	// close the gap to either bound, or none at all (residue trapped below
	// the propagation threshold). Exact ties always end here, and on graphs
	// whose BCA states spread over most nodes so do most candidates. A
	// sweep's fallbacks are batch-resolved through forward SpMM slabs
	// (resolveFallbacks), but each still counts individually here.
	ExactFallbacks int
	// Committed counts refined states written back to the index (update
	// mode only).
	Committed int
	// Elapsed is total wall-clock time, PMPNElapsed the part spent in
	// step 1.
	Elapsed     time.Duration
	PMPNElapsed time.Duration
	// FallbackElapsed is the part of Elapsed spent resolving deferred
	// exact fallbacks through forward SpMM slabs (resolveFallbacks).
	FallbackElapsed time.Duration
	// FallbackIters is the total number of forward power-method iterations
	// this query's exact fallbacks ran, and FallbackEarlyStops how many of
	// them stopped before convergence because the iterate's error band had
	// already cleared the decision (resolveExact). FallbackEarlyStops <
	// ExactFallbacks means some of the query's fallbacks ran to convergence.
	FallbackIters      int
	FallbackEarlyStops int
	// FallbackBallIters is the part of FallbackIters swept over the
	// candidates' forward balls rather than all n rows (rwr/spmm.go).
	FallbackBallIters int
	// DecideElapsed is the part of Elapsed spent deciding candidates — the
	// Screen's passes plus the bound-refinement sweep (Algorithm 4) —
	// excluding the deferred-fallback resolution counted separately in
	// FallbackElapsed.
	DecideElapsed time.Duration
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
	g      graph.View
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
	// own precision. The exact fallback's early stop (resolveExact) leans on
	// the same agreement between the PMPN and forward values of p_u(q).
	tieTol float64
	// practical selects the paper's literal decision rule for stalled
	// candidates; see SetPracticalDecisions.
	practical bool
	// probeBuf is the n-vector resolveExact's early-stop probe reads
	// fallback columns into; allocated by the first fallback that probes.
	probeBuf []float64
	// zeroBound is the owning View's per-k table, which this engine's screens
	// read in place of the index (Screen.take). Nil on an engine made by
	// NewEngine: an update-mode commit moves the bounds the table is derived
	// from, so such an engine's screens always take every row.
	zeroBound *zeroBoundTable
	// record is set while Explain runs: the listener its pipeline reports
	// every decision to.
	record recorder
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
//     tightness reachable at η) to the exact answer.
func (e *Engine) SetPracticalDecisions(on bool) { e.practical = on }

// NewEngine creates a query engine. update selects whether refinements are
// committed back to the index (§4.2.3) — the "update" series of Fig. 5/7. An
// update-mode engine owns idx: give it an index no one else uses, or a Clone.
func NewEngine(g graph.View, idx *lbindex.Index, update bool) (*Engine, error) {
	if g.N() != idx.N() {
		return nil, fmt.Errorf("core: index built for %d nodes, graph has %d", idx.N(), g.N())
	}
	return &Engine{
		g:       g,
		idx:     idx,
		update:  update,
		workers: 1,
		wsPool:  bca.NewPool(g.N()),
		tieTol:  defaultTieTol,
	}, nil
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
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers = n
}

// Workers returns the configured intra-query parallelism degree.
func (e *Engine) Workers() int { return e.workers }

// Query runs Algorithm 4 (OQ) — the pipeline as one round to convergence and
// the finish: it returns every node u with p_u(q) ≥ pkmax_u, in ascending node
// order, plus the per-query statistics.
func (e *Engine) Query(q graph.NodeID, k int) ([]graph.NodeID, QueryStats, error) {
	r, err := e.start(q, k)
	if err == nil {
		err = r.Rounds(0, 0)
	}
	if err != nil {
		return nil, QueryStats{Query: q, K: k}, err
	}
	return e.finish(r, r.screens[0])
}

// start validates a query and starts its run over one screen of the engine's
// index, read through the owning View's table when there is one.
func (e *Engine) start(q graph.NodeID, k int) (*Run, error) {
	if int(q) < 0 || int(q) >= e.g.N() {
		return nil, fmt.Errorf("core: query node %d out of range [0,%d)", q, e.g.N())
	}
	if k <= 0 || k > e.idx.K() {
		return nil, fmt.Errorf("core: k=%d outside [1,%d] supported by the index", k, e.idx.K())
	}
	s := &Screen{idx: e.idx, k: k, tol: e.tieTol, table: e.zeroBound, record: e.record, workers: e.workers}
	return NewRun(e.g, q, e.idx.Options().RWR, e.workers, nil, s)
}

// support counts the non-zero entries of a proximity vector
// (QueryStats.PMPNSupport). rows, when non-nil, is the PMPN's own list of
// the only rows that can hold one (rwr.ToStepper.Rows), visited in place of
// all n.
func support(pq []float64, rows []graph.NodeID) int {
	n := 0
	if rows != nil {
		for _, u := range rows {
			if pq[u] != 0 {
				n++
			}
		}
		return n
	}
	for _, p := range pq {
		if p != 0 {
			n++
		}
	}
	return n
}

// decideSet refines the listed candidates — a screen's survivors, each with
// p̂(k) − tieTol ≤ p_u(q) < UB − tieTol; an empty list is no candidates —
// sharded across the engine's workers, and resolves the ones refinement leaves
// open. Outcomes are identical at any worker count: each shard runs the same
// loop over its segment with a private workspace and counters, answers
// concatenate in segment order and counters merge by addition. In update mode
// each shard commits only the rows of its own segment, so the shards write
// distinct rows of the engine's own index and need no lock.
//
// Candidates whose next refinement step could not decide them (refine) are
// deferred by the sweep (per shard, in segment order) and resolved afterwards
// in one pass of SpMM-batched exact solves on the coordinating goroutine —
// same pending list, same order, whatever the worker count, so the sequential
// and sharded engines still make bit-identical decisions and commits. q is the
// node pq was computed for (−1 if unknown); it rides along on each deferred
// candidate, see pendingFallback. The sweep stays on this goroutine under
// Explain (the recorder's) and for fewer than two shards' worth of candidates.
func (e *Engine) decideSet(q graph.NodeID, pq []float64, k int, list []graph.NodeID, stats *QueryStats) ([]graph.NodeID, error) {
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
			if e.decide(ws, q, u, k, pq[u], &sh.stats, &sh.pend) {
				sh.results = append(sh.results, u)
			}
		}
	}
	if len(segs) == 1 {
		sweep(&shards[0], segs[0])
	} else {
		var wg sync.WaitGroup
		for si, seg := range segs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sweep(&shards[si], seg)
			}()
		}
		wg.Wait()
	}
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
		fb, err := e.resolveFallbacks(pend, k, stats)
		stats.FallbackElapsed += time.Since(fbStart)
		if err != nil {
			return nil, err
		}
		results = append(results, fb...)
	}
	return results, nil
}

// indexedRows returns how many rows idx materializes and the i-th of them,
// ascending: all of [0, n) for a full index, the owned list — which may be
// empty — for a shard slice. Fullness is what Index.Shard reports, never a nil
// list: a shard that owns nothing has one too.
func indexedRows(idx *lbindex.Index) (int, func(i int) graph.NodeID) {
	if _, _, slice := idx.Shard(); slice {
		owned := idx.OwnedNodes()
		return len(owned), func(i int) graph.NodeID { return owned[i] }
	}
	return idx.N(), func(i int) graph.NodeID { return graph.NodeID(i) }
}

// decide is Algorithm 4's while loop for one candidate u the Screen left
// open — puq = p_u(q) is neither under u's k-th lower bound nor over its
// staircase upper bound: refine it, or defer it. It returns whether refinement
// made u a member. ws is the BCA scratch to refine with, one per sweep shard
// (stats and pend must likewise be private to the calling shard). A candidate
// refine leaves undecided is NOT decided here: it is appended to *pend, tagged
// with the query node q (−1 if unknown), for the caller to batch-resolve with
// exact solves after the sweep (resolveFallbacks), and reported as not a
// member.
func (e *Engine) decide(ws *bca.Workspace, q, u graph.NodeID, k int, puq float64, stats *QueryStats, pend *[]pendingFallback) bool {
	rho := e.idx.ResidueNorm(u) + e.idx.RoundingSlack(u)
	ink, t := e.idx.BatchInk(u, e.idx.Options().BCA.Eta)
	r := e.refine(ws, u, k, puq, e.idx.PHatRow(u), rho, ink, t)
	stats.RefineSteps += r.steps
	if !r.decided {
		// Exact fallback: the node needs p_u in full, compared against its
		// own exact pkmax. The vector depends only on u — not on the query —
		// and each one is a whole power method, so the sweep DEFERS it: the
		// caller collects every open candidate and resolves them together
		// through forward SpMM slabs (resolveFallbacks), where B columns
		// share each CSR traversal instead of streaming the matrix from RAM
		// B separate times. The batched columns are bit-identical to the
		// per-candidate solves, so deferral changes no decision and no
		// committed state. The refined state is NOT committed here even in
		// update mode: resolution commits the strictly better exact state
		// instead.
		stats.ExactFallbacks++
		*pend = append(*pend, pendingFallback{u: u, q: q, puq: puq, nextT: r.t + r.steps + 1, steps: r.steps})
		return false
	}
	if r.steps > 0 && e.update {
		e.idx.Commit(u, r.st, bca.TopK(r.st, e.idx.HubMatrix(), ws, e.idx.K()))
		stats.Committed++
	}
	if e.record != nil {
		how := OutcomeRefinedOut
		if r.member {
			how = OutcomeRefinedIn
		}
		e.record(u, puq, how, r.member, r.steps)
	}
	return r.member
}

// refinement is what refine reports about one candidate.
type refinement struct {
	// decided says a bound settled the candidate (or, for one left open,
	// practical mode did), member which way. A candidate is left open when
	// its next step could not have settled it.
	decided, member bool
	steps           int        // BCA steps taken
	st              *bca.State // the refined copy of u's state; nil unless refine copied it to step
	t               int        // iterations u's stored state had run before these steps
}

// refine is the inner while loop of Algorithm 4 for a candidate its indexed
// bounds leave open: phat is u's indexed row, rho its residue plus rounding
// slack, and ink and t its stored state's batch ink and iteration count
// (lbindex.Index.BatchInk), with
// p̂(k) − tieTol ≤ p_u(q) < UpperBound(p̂, k, ρ) − tieTol. It
// advances a copy of u's BCA state until a bound decides, but takes a step —
// the first one and the deep copy before it included — only if that step
// could decide. A step at threshold η takes exactly B = Σ{r(v) : r(v) ≥ η}
// (bca.State.BatchInk) out of the residue and adds at most B to p^t, and the
// slack never shrinks; so after it ρ′ ≥ ρ − B, p̂′ ≥ p̂ entrywise, and
//
//	UB′   = UpperBound(p̂′, k, ρ′) ≥ UpperBound(p̂, k, ρ − B)
//	p̂′(k) ≤ UpperBound(p̂, k, B)
//
// If the first still clears p_u(q) and the second still does not, neither
// bound can decide u whatever the step does, and u is left open at once for
// the exact solve — which, since the push-form forward sweep, costs about
// what one step over a spread-out state does. B = 0 (all residue below η, the
// step a no-op) is the degenerate instance: both right-hand sides are then
// the bounds that just failed, so refine never copies or steps such a state —
// which is why the index may store it summarized, without R and W
// (bca.State.Summarized). The test is a pure function of (u's state, k,
// p_u(q)), so every sweep order and worker count takes the same steps.
// cfg.MaxIters is the safety net against a state that never drains. In
// practical mode (SetPracticalDecisions) a candidate left open is a member.
func (e *Engine) refine(ws *bca.Workspace, u graph.NodeID, k int, puq float64, phat []float64, rho, ink float64, t int) refinement {
	cfg := e.idx.Options().BCA
	hm := e.idx.HubMatrix()
	r := refinement{t: t}
	for r.steps < cfg.MaxIters && stepCanDecide(phat, k, rho, ink, puq, e.tieTol) {
		if r.st == nil {
			r.st = e.idx.StateSnapshot(u)
		}
		bca.Step(e.g, r.st, hm, cfg, ws)
		r.steps++
		// Only the first k entries feed the bound checks; the full-K column
		// is recomputed once at commit time.
		phat = bca.TopK(r.st, hm, ws, k)
		if prunedByLowerBound(puq, phat[k-1], e.tieTol) {
			r.decided = true
			return r
		}
		rho = r.st.RNorm + e.idx.StateSlack(r.st)
		if rho == 0 || puq >= UpperBound(phat, k, rho)-e.tieTol {
			r.decided, r.member = true, true
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
// candidate or the lower bound exclude it (see refine for the two bounds).
func stepCanDecide(phat []float64, k int, rho, ink, puq, tieTol float64) bool {
	return puq >= UpperBound(phat, k, rho-ink)-tieTol ||
		prunedByLowerBound(puq, UpperBound(phat, k, ink), tieTol)
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
// The query node, puq and the would-be next BCA iteration number are captured
// at deferral time so resolution needs nothing but u's forward iteration.
// q = −1 means the caller did not know the query node; such a candidate is
// only ever decided against the converged vector.
type pendingFallback struct {
	u, q  graph.NodeID
	puq   float64
	nextT int
	steps int // refinement steps taken before deferral, for Explain
}

// fallbackOutcome is how resolveExact decided one deferred candidate.
type fallbackOutcome struct {
	member bool
	iters  int  // forward iterations the candidate's column ran
	early  bool // the column stopped before converging
}

// resolveFallbacks decides every candidate one sweep deferred, returning
// the members. Runs on the coordinating goroutine after the decision sweep.
func (e *Engine) resolveFallbacks(pend []pendingFallback, k int, stats *QueryStats) ([]graph.NodeID, error) {
	out, ballIters, err := e.resolveExact(pend, k)
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
		if o.early {
			stats.FallbackEarlyStops++
		}
		if o.member {
			results = append(results, pend[i].u)
		}
		if e.record != nil {
			e.record(pend[i].u, pend[i].puq, OutcomeFallback, o.member, pend[i].steps)
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

// resolveExact decides every deferred candidate by its node's forward power
// iteration: pend[i] is a member iff p_u(q) ≥ pkmax(u) − tieTol, pkmax(u) the
// k-th largest entry of u's exact proximity vector. Each candidate gets one
// column; columns run in forward SpMM slabs of at most spmmChunkWidth, in
// deferral order, and every column that runs to convergence is bit-identical
// to the scalar ProximityVectorParallel solve. Each slab is swept by one
// worker whatever the engine's worker count: only a single-segment sweep gets
// the push kernel and the forward-ball phase (rwr/spmmfwd.go, rwr/spmm.go), and
// a row-sharded one falls to the dense gather kernel at 1.6–3× the cost per
// column — two workers were slower than one. Columns are bit-identical either
// way.
//
// A no-update engine rarely needs the converged vector. p_u(q) is already
// exact (the PMPN gave it); the unknown is only which side of it pkmax(u)
// falls, and the iterate x^t brackets every entry of p_u within the
// elementwise band τ_t = r_t·(1−α)/α (rwr.ColumnProbe). So between
// iterations a probe computes κ, the k-th largest of x^t over v ≠ q, and
// decides the candidate the moment the band clears its anchor (Fujiwara et
// al.'s bound-driven termination, PAPERS.md):
//
//	κ − τ > p_u(q) + tieTol  ⇒ non-member. Unconditionally the converged
//	    decision: the converged threshold T* ≥ κ* ≥ κ − τ > p_u(q) + tieTol.
//	κ + τ ≤ p_u(q) + tieTol  ⇒ member. At most k−1 nodes other than q can
//	    end above p_u(q) + tieTol, so T* ≤ max(x*[q], p_u(q) + tieTol), which
//	    is the converged decision provided the forward value x*[q] of p_u(q)
//	    agrees with the PMPN value within tieTol — the agreement tieTol is
//	    defined by and every exact tie already relies on (see Engine.tieTol).
//
// The test is anchored at p_u(q), with q left out of κ, because nearly
// half of all fallbacks are exact ties — q IS u's k-th node and the gap to
// pkmax is ≈1e-15 (ROADMAP.md has the distribution) — where a band around
// the k-th entry itself can never close above tieTol, while the (k+1)-th
// entry separates from the anchor early. A candidate without a query node
// (q = −1) is never probed: its column runs to convergence.
//
// In update mode there is no probe: each solved vector is committed as a
// fully drained exact state (all ink retained, zero residue) so no future
// query ever spends work on that node again — this is what makes the
// update curve of Fig. 7/8 flatten — and that needs the converged vector.
func (e *Engine) resolveExact(pend []pendingFallback, k int) (out []fallbackOutcome, ballIters int, err error) {
	out = make([]fallbackOutcome, len(pend))
	for lo := 0; lo < len(pend); lo += spmmChunkWidth {
		chunk := pend[lo:min(lo+spmmChunkWidth, len(pend))]
		outs := out[lo : lo+len(chunk)]
		origins := make([]graph.NodeID, len(chunk))
		// nextProbe[i]: look at column i once its tail is at most this.
		nextProbe := make([]float64, len(chunk))
		for i, pf := range chunk {
			origins[i] = pf.u
			nextProbe[i] = probeFirstTail
			if pf.q < 0 {
				nextProbe[i] = -1 // no tail gets there: never probed
			}
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
				pf := chunk[i]
				// A slab still inside its forward ball reads the ball's rows
				// only: x^t is zero elsewhere — at q too, if q is not one of
				// them — and TopKValues pads a short list with the zeros left
				// out. The entries are packed to the front for the selection;
				// rows ascend, so slot at never overtakes entry rows[at].
				vals, xq := e.probeBuf, 0.0
				if rows := read(vals); rows == nil {
					xq = vals[pf.q]
				} else {
					for at, u := range rows {
						if u == pf.q {
							xq = vals[u]
						}
						vals[at] = vals[u]
					}
					vals = vals[:len(rows)]
				}
				top := vecmath.TopKValues(vals, k+1)
				kappa := top[k-1]
				if xq >= kappa {
					kappa = top[k] // q is one of the k largest: leave it out
				}
				switch anchor := pf.puq + e.tieTol; {
				case kappa+tail <= anchor:
					outs[i] = fallbackOutcome{member: true, iters: iter, early: true}
				case kappa-tail > anchor:
					outs[i] = fallbackOutcome{iters: iter, early: true}
				default:
					return false
				}
				return true
			}
		}
		var colErr error
		swept, err := rwr.ProximityVectorBatchFunc(e.g, origins, e.idx.Options().RWR, 1, probe, func(i int, res rwr.Result, rerr error) {
			if rerr != nil {
				if colErr == nil {
					colErr = rerr
				}
				return
			}
			th := vecmath.KthLargest(res.Vector, k)
			outs[i] = fallbackOutcome{member: chunk[i].puq >= th-e.tieTol, iters: res.Iterations}
			if e.update {
				exact := &bca.State{
					Origin: origins[i],
					T:      chunk[i].nextT,
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

// BruteForce answers a reverse top-k query by computing the exact proximity
// vector of every node (the BF method of §3). It is the correctness oracle
// for the engine and the cost yardstick of Fig. 8. workers ≤ 0 selects
// GOMAXPROCS.
func BruteForce(g graph.View, q graph.NodeID, k int, p rwr.Params, workers int) ([]graph.NodeID, error) {
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
	var results []graph.NodeID
	for u := 0; u < g.N(); u++ {
		if cols[u][q] >= vecmath.KthLargest(cols[u], k) {
			results = append(results, graph.NodeID(u))
		}
	}
	return results, nil
}
