package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/graph"
)

// The anytime approximate query tier — the paper's approximate mode (§5.3)
// taken round by round. Where Engine.Query runs the pipeline's round loop as
// one round to convergence and then refines every undecided candidate to an
// exact answer, QueryAnytime runs the same loop (Run.Rounds) round by round and
// stops as soon as the caller's ε budget is met, returning a two-part answer:
//
//   - guaranteed: nodes the monotone-safe bound tests confirmed into the
//     answer (the screen's hits);
//   - maybe: nodes still undecided when the run stopped (its survivors).
//
// Every decision is deterministic, so
//
//	guaranteed ⊆ exact ⊆ guaranteed ∪ maybe
//
// holds unconditionally, and the stop rule |maybe| ≤ ε·(|guaranteed| +
// |maybe|) bounds how much of the exact answer can hide in the maybe set.
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
// advances, for the anytime tier and the sharded coordinator alike. At
// α = 0.15 the error band τ shrinks ≈ 3.7× in 8 iterations: coarse enough
// that screens stay a small fraction of matvec cost, fine enough that pruning
// starts long before convergence (≈ 140 iterations at ε = 1e-10).
const DefaultAnytimeRoundIters = 8

// AnytimeOptions configures one anytime query.
type AnytimeOptions struct {
	// Eps is the undecided-fraction budget in [0,1): the run stops once
	// |maybe| ≤ Eps·(|guaranteed| + |maybe|). Eps = 0 demands every node
	// decided by bounds, i.e. the run iterates to convergence and stops at
	// the exact path's pre-refinement screen.
	Eps float64
}

// AnytimeStats carries the diagnostics of one anytime run.
type AnytimeStats struct {
	Query graph.NodeID
	K     int
	// Eps echoes the request.
	Eps float64
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
	// Decision tallies of the bound tests.
	ConfirmedByBound int
	PrunedByBound    int
	// Guaranteed and Maybe are the answer-part sizes.
	Guaranteed int
	Maybe      int

	Elapsed     time.Duration
	PMPNElapsed time.Duration
}

// AnytimeResult is the two-part anytime answer, in the external identifier
// space, each part ascending. A result additionally retains the run so the
// exact path can continue it; see Escalate.
type AnytimeResult struct {
	Guaranteed []graph.NodeID
	Maybe      []graph.NodeID
	Stats      AnytimeStats

	v         *View
	run       *Run
	screen    *Screen // run.screens[0]
	escalated bool
}

// QueryAnytime answers one reverse top-k query approximately under the
// given ε budget, with the given intra-query worker count (≤ 0 selects
// GOMAXPROCS). q and the answer parts are in the external identifier space,
// like Query. Safe for concurrent use; answers are deterministic at any
// worker setting.
func (v *View) QueryAnytime(q graph.NodeID, k int, opts AnytimeOptions, workers int) (*AnytimeResult, error) {
	if math.IsNaN(opts.Eps) || opts.Eps < 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("core: eps=%v outside [0,1)", opts.Eps)
	}
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	r, err := e.start(v.idx.ToInternal(q), k)
	if err != nil {
		return nil, err
	}
	if err := r.Rounds(opts.Eps, DefaultAnytimeRoundIters); err != nil {
		return nil, err
	}
	s := r.screens[0]
	// Copies: the external translation works in place, and Escalate goes on
	// from the screen's own lists.
	guaranteed := slices.Sorted(slices.Values(s.Hits()))
	maybe := slices.Clone(s.Survivors())
	stats := r.Stats()
	stats.Query, stats.Eps = q, opts.Eps
	return &AnytimeResult{
		Guaranteed: externalAnswer(v.idx, guaranteed),
		Maybe:      externalAnswer(v.idx, maybe),
		Stats:      stats,
		v:          v,
		run:        r,
		screen:     s,
	}, nil
}

// Escalate resolves the result exactly by taking its run the rest of the way:
// the round loop resumes from x^t (never from e_q) to convergence, and the
// finish refines only the nodes the screen still holds open. The returned
// answer and every counter are a cold View.Query's at any worker count.
// Single-use, and not concurrently with other uses of the result.
func (r *AnytimeResult) Escalate(workers int) ([]graph.NodeID, QueryStats, error) {
	if r.v == nil || r.run == nil {
		return nil, QueryStats{}, fmt.Errorf("core: Escalate on a detached AnytimeResult")
	}
	if r.escalated {
		return nil, QueryStats{}, fmt.Errorf("core: AnytimeResult escalated twice")
	}
	r.escalated = true
	if !r.run.stepper.Converged() {
		if err := r.run.Rounds(0, 0); err != nil {
			return nil, QueryStats{}, err
		}
	}
	answer, stats, err := r.v.Finish(r.run, r.screen, workers)
	stats.Query = r.Stats.Query
	return externalAnswer(r.v.idx, answer), stats, err
}
