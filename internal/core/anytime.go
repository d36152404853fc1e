package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// The anytime approximate query tier. Where Engine.Query runs the pipeline's
// round loop as one round to convergence and then refines every undecided
// candidate to an exact answer, QueryAnytime runs the same loop (Run.Rounds)
// round by round and stops as soon as the caller's ε budget is met, returning
// a two-part answer:
//
//   - guaranteed: nodes the monotone-safe bound tests (or, with δ > 0, the
//     Monte Carlo stage) confirmed into the answer;
//   - maybe: nodes still undecided when the run stopped.
//
// With δ = 0 every decision is deterministic, so
//
//	guaranteed ⊆ exact ⊆ guaranteed ∪ maybe
//
// holds unconditionally, and the stop rule |maybe| ≤ ε·(|guaranteed| +
// |maybe|) bounds how much of the exact answer can hide in the maybe set.
// With δ > 0 the Monte Carlo refinement may move nodes out of maybe on
// probabilistic evidence; all of its decisions over one query are wrong
// with probability at most δ (a union bound over every interval it tests),
// so the containment holds with probability ≥ 1 − δ.
//
// The tier never runs candidate refinement — the phase that dominates exact
// latency — which is what makes it the sub-exact serving path. If the
// deterministic band converges before the budget is met, the run stops
// anyway (iterating further cannot decide anything new; the remaining
// indecision lives in the index rows, not the iterate) and reports the
// achieved ε honestly. Escalate takes the same run on to the exact answer: the
// loop resumes from the current iterate instead of restarting from e_q, and
// only the still-undecided candidates pay for refinement.

// DefaultAnytimeRoundIters is the PMPN iteration block between screen
// advances when AnytimeOptions.RoundIters — or the sharded coordinator's — is
// unset. At α = 0.15 the error band τ shrinks ≈ 3.7× in 8 iterations: coarse
// enough that screens stay a small fraction of matvec cost, fine enough that
// pruning starts long before convergence (≈ 140 iterations at ε = 1e-10).
const DefaultAnytimeRoundIters = 8

const (
	defaultMCWalks         = 512
	defaultMCMaxLen        = 64
	defaultMCMaxCandidates = 2048
	anytimeSeedMix         = int64(0x5851F42D4C957F2D)
)

// AnytimeOptions configures one anytime query.
type AnytimeOptions struct {
	// Eps is the undecided-fraction budget in [0,1): the run stops once
	// |maybe| ≤ Eps·(|guaranteed| + |maybe|). Eps = 0 demands every node
	// decided by bounds, i.e. the run iterates to convergence and stops at
	// the exact path's pre-refinement screen.
	Eps float64
	// Delta, when positive, enables the residual-seeded Monte Carlo
	// refinement: per query, all probabilistic decisions are jointly valid
	// with probability ≥ 1 − Delta. Delta = 0 keeps the run fully
	// deterministic. At most 0.5.
	Delta float64
	// RoundIters is the PMPN iteration block between screen advances
	// (0 selects DefaultAnytimeRoundIters). Rounds self-extend when the
	// screen reports no decision can fire before the band tightens further.
	RoundIters int
	// Seed fixes the Monte Carlo random streams; runs with equal options and
	// seed are byte-identical. Ignored when Delta = 0.
	Seed int64
	// MCWalks is the walk budget per undecided node per engagement
	// (0 selects 512).
	MCWalks int
	// MCMaxLen truncates each walk (0 selects 64); the truncation bias is
	// folded into the confidence band.
	MCMaxLen int
	// MCMaxCandidates gates the Monte Carlo stage until the undecided set
	// has shrunk to at most this many nodes (0 selects 2048), so walk time
	// is only spent once the deterministic screen has done the bulk pruning.
	MCMaxCandidates int
}

func (o AnytimeOptions) resolve() (AnytimeOptions, error) {
	if math.IsNaN(o.Eps) || o.Eps < 0 || o.Eps >= 1 {
		return o, fmt.Errorf("core: eps=%v outside [0,1)", o.Eps)
	}
	if math.IsNaN(o.Delta) || o.Delta < 0 || o.Delta > 0.5 {
		return o, fmt.Errorf("core: delta=%v outside [0,0.5]", o.Delta)
	}
	if o.RoundIters < 0 || o.MCWalks < 0 || o.MCMaxLen < 0 || o.MCMaxCandidates < 0 {
		return o, fmt.Errorf("core: negative anytime option")
	}
	if o.RoundIters == 0 {
		o.RoundIters = DefaultAnytimeRoundIters
	}
	if o.MCWalks == 0 {
		o.MCWalks = defaultMCWalks
	}
	if o.MCMaxLen == 0 {
		o.MCMaxLen = defaultMCMaxLen
	}
	if o.MCMaxCandidates == 0 {
		o.MCMaxCandidates = defaultMCMaxCandidates
	}
	return o, nil
}

// AnytimeStats carries the diagnostics of one anytime run.
type AnytimeStats struct {
	Query graph.NodeID
	K     int
	// Eps and Delta echo the request.
	Eps, Delta float64
	// EpsAchieved is the final undecided fraction |maybe|/(|guaranteed| +
	// |maybe|). It is ≤ Eps when the budget was met, and may exceed Eps only
	// when the deterministic band converged first (Converged = true) — the
	// caller can Escalate to resolve the remainder exactly.
	EpsAchieved float64
	// TauAchieved is the elementwise PMPN error bound at stop (0 after the
	// exact-pq final screen).
	TauAchieved float64
	// Rounds counts screen advances; PMPNIters the underlying iterations.
	Rounds    int
	PMPNIters int
	// Converged reports whether the power iteration ran to residual
	// convergence before the run stopped.
	Converged bool
	// Deterministic and Monte Carlo decision tallies.
	ConfirmedByBound int
	PrunedByBound    int
	MCConfirmed      int
	MCPruned         int
	MCWalks          int64
	// Guaranteed and Maybe are the answer-part sizes.
	Guaranteed int
	Maybe      int

	Elapsed     time.Duration
	PMPNElapsed time.Duration
	MCElapsed   time.Duration
}

// AnytimeResult is the two-part anytime answer, in the external identifier
// space, each part ascending. A result additionally retains the run so the
// exact path can continue it; see Escalate.
type AnytimeResult struct {
	Guaranteed []graph.NodeID
	Maybe      []graph.NodeID
	Stats      AnytimeStats

	v         *View
	st        *anytimeState
	escalated bool
}

// anytimeState is the run with the Monte Carlo stage's verdicts on it.
type anytimeState struct {
	run    *Run
	screen *Screen // run.screens[0]
	// mcIn/mcOut record Monte Carlo decisions for nodes the deterministic
	// screen still holds alive. Deterministic decisions always win: a node
	// the screen later confirms or prunes simply drops out of Survivors and
	// its Monte Carlo verdict becomes irrelevant.
	mcIn, mcOut map[graph.NodeID]bool
	engagements int
}

func (st *anytimeState) effectiveCounts() (conf, und int) {
	conf = len(st.screen.Hits())
	und = len(st.screen.Survivors())
	for _, u := range st.screen.Survivors() {
		if st.mcIn[u] {
			conf++
			und--
		} else if st.mcOut[u] {
			und--
		}
	}
	return conf, und
}

func undecidedFrac(conf, und int) float64 {
	if und == 0 {
		return 0
	}
	return float64(und) / float64(conf+und)
}

// QueryAnytime answers one reverse top-k query approximately under the
// given (ε,δ) budget, with the given intra-query worker count (≤ 0 selects
// GOMAXPROCS). q and the answer parts are in the external identifier space,
// like Query. Safe for concurrent use; with Delta = 0, or with a fixed
// Seed, answers are deterministic at any worker setting.
func (v *View) QueryAnytime(q graph.NodeID, k int, opts AnytimeOptions, workers int) (*AnytimeResult, error) {
	o, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	r, err := e.start(v.idx.ToInternal(q), k)
	if err != nil {
		return nil, err
	}
	st := &anytimeState{run: r, screen: r.screens[0]}
	var mc AnytimeStats
	if o.Delta > 0 {
		// The Monte Carlo stage engages between rounds once the screen has
		// done the bulk pruning, and its verdicts count towards the budget.
		st.mcIn, st.mcOut = make(map[graph.NodeID]bool), make(map[graph.NodeID]bool)
		r.between = func(tau float64, converged bool) (conf, und int) {
			conf, und = st.effectiveCounts()
			if !converged && und > 0 && und <= o.MCMaxCandidates && undecidedFrac(conf, und) > o.Eps {
				st.engageMC(v.g, o, r.params.Alpha, tau, &mc)
				conf, und = st.effectiveCounts()
			}
			return conf, und
		}
	}
	if err := r.Rounds(o.Eps, o.RoundIters); err != nil {
		return nil, err
	}
	guaranteed, maybe := st.assemble()
	stats := r.Stats()
	stats.Query, stats.Eps, stats.Delta = q, o.Eps, o.Delta
	stats.MCConfirmed, stats.MCPruned, stats.MCWalks, stats.MCElapsed = mc.MCConfirmed, mc.MCPruned, mc.MCWalks, mc.MCElapsed
	stats.Guaranteed, stats.Maybe = len(guaranteed), len(maybe)
	return &AnytimeResult{
		Guaranteed: externalAnswer(v.idx, guaranteed),
		Maybe:      externalAnswer(v.idx, maybe),
		Stats:      stats,
		v:          v,
		st:         st,
	}, nil
}

// engageMC runs one Monte Carlo refinement pass over the still-undecided
// nodes. For each node it estimates the remaining PMPN error from the last
// iteration's delta (rwr.ResidualWalkEstimate), intersects the resulting
// confidence interval for p_u(q) with the deterministic band, and applies
// the screen's own confirm/prune comparisons to the tightened interval.
// Failure probability is budgeted δ/2^e across engagements e = 1,2,…, split
// evenly over the nodes tested in each, so all decisions of one query are
// jointly valid with probability ≥ 1 − δ.
func (st *anytimeState) engageMC(g graph.View, o AnytimeOptions, alpha, tau float64, stats *AnytimeStats) {
	cur, prev := st.run.stepper.Current(), st.run.stepper.Previous()
	if prev == nil {
		return
	}
	deltaInf := vecmath.MaxAbsDiff(cur, prev)
	if deltaInf == 0 {
		return
	}
	surv := st.screen.Survivors()
	m := 0
	for _, u := range surv {
		if !st.mcIn[u] && !st.mcOut[u] {
			m++
		}
	}
	if m == 0 {
		return
	}
	st.engagements++
	fail := o.Delta / (float64(m) * math.Pow(2, float64(st.engagements)))
	band := rwr.ResidualWalkBand(deltaInf, o.MCMaxLen, o.MCWalks, alpha, fail)
	if band >= tau {
		// The walk budget cannot beat the deterministic band this round;
		// don't pay for walks that decide nothing.
		return
	}
	mcStart := time.Now()
	for i, u := range surv {
		if st.mcIn[u] || st.mcOut[u] {
			continue
		}
		lb, ub := st.screen.survivorBounds(i)
		rng := rand.New(rand.NewSource(o.Seed ^ (int64(u)+1)*anytimeSeedMix ^ int64(st.engagements)<<48))
		est := rwr.ResidualWalkEstimate(g, u, cur, prev, o.MCMaxLen, o.MCWalks, alpha, rng)
		stats.MCWalks += int64(o.MCWalks)
		xv := cur[u]
		lo := math.Max(xv+est-band, xv-tau)
		hi := math.Min(xv+est+band, xv+tau)
		if hi < lb-st.screen.tol {
			st.mcOut[u] = true
			stats.MCPruned++
			continue
		}
		if lo >= ub-st.screen.tol {
			st.mcIn[u] = true
			stats.MCConfirmed++
		}
	}
	stats.MCElapsed += time.Since(mcStart)
}

// assemble splits the final alive set into the answer parts, in the
// internal label space, ascending (maybe as Survivors is). Deterministic hits
// come first-hand from the screen; Monte Carlo verdicts only apply to nodes
// the screen never decided.
func (st *anytimeState) assemble() (guaranteed, maybe []graph.NodeID) {
	guaranteed = append([]graph.NodeID(nil), st.screen.Hits()...)
	for _, u := range st.screen.Survivors() {
		switch {
		case st.mcIn[u]:
			guaranteed = append(guaranteed, u)
		case st.mcOut[u]:
		default:
			maybe = append(maybe, u)
		}
	}
	sort.Slice(guaranteed, func(i, j int) bool { return guaranteed[i] < guaranteed[j] })
	return guaranteed, maybe
}

// Escalate resolves the result exactly by taking its run the rest of the way:
// the round loop resumes from x^t (never from e_q) to convergence, and the
// finish refines only the nodes the screen still holds open. Monte Carlo
// verdicts are discarded — the returned answer and every counter are a cold
// View.Query's at any worker count. Single-use, and not concurrently with
// other uses of the result.
func (r *AnytimeResult) Escalate(workers int) ([]graph.NodeID, QueryStats, error) {
	if r.v == nil || r.st == nil {
		return nil, QueryStats{}, fmt.Errorf("core: Escalate on a detached AnytimeResult")
	}
	if r.escalated {
		return nil, QueryStats{}, fmt.Errorf("core: AnytimeResult escalated twice")
	}
	r.escalated = true
	run := r.st.run
	run.between = nil
	if !run.stepper.Converged() {
		if err := run.Rounds(0, 0); err != nil {
			return nil, QueryStats{}, err
		}
	}
	answer, stats, err := r.v.Finish(run, r.st.screen, workers)
	stats.Query = r.Stats.Query
	return externalAnswer(r.v.idx, answer), stats, err
}
