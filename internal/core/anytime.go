package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/graph"
)

// The anytime approximate query tier — the paper's approximate mode (§5.3)
// taken round by round. Where Engine.Query runs the pipeline's round loop
// until nothing is open (or the screen is final, or the PMPN converged) and
// then refines every undecided candidate to an exact answer, QueryAnytime runs
// the same loop (Run.Rounds) and stops as soon as the caller's ε budget is met,
// returning a two-part answer:
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
// latency — which is what makes it the sub-exact serving path. If the screen
// is final or the PMPN converges before the budget is met, the run stops
// anyway (iterating further cannot decide anything new; the remaining
// indecision lives in the index rows, not the iterate) and reports the
// achieved ε honestly: the maybe set is then exactly the exact query's
// refinement candidates.

// AnytimeOptions configures one anytime query.
type AnytimeOptions struct {
	// Eps is the undecided-fraction budget in [0,1): the run stops once
	// |maybe| ≤ Eps·(|guaranteed| + |maybe|). Eps = 0 demands every node
	// decided by bounds, i.e. the run iterates until the screen is final or
	// the PMPN converges and stops at the exact path's pre-refinement screen.
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
	// when the deterministic band converged (Converged) or the screen was
	// final (Final) first.
	EpsAchieved float64
	// TauAchieved is the elementwise PMPN error bound at stop (0 after the
	// exact-pq final screen).
	TauAchieved float64
	// PMPNTail is the band a finish decides the maybe set on:
	// TauAchieved widened by the converged vector's own bound, 0 when
	// converged (QueryStats.PMPNTail).
	PMPNTail float64
	// Rounds counts screen advances; PMPNIters, PMPNEdges and PMPNHandover
	// are the run's QueryStats fields of those names.
	Rounds       int
	PMPNIters    int
	PMPNEdges    int
	PMPNHandover bool
	// Converged reports whether the power iteration ran to residual
	// convergence before the run stopped; Final whether the last screen
	// left every open row final — no smaller τ could prune or confirm one
	// (Run.Rounds).
	Converged bool
	Final     bool
	// Decision tallies of the bound tests.
	ConfirmedByBound int
	PrunedByBound    int
	// Guaranteed and Maybe are the answer-part sizes.
	Guaranteed int
	Maybe      int

	Elapsed     time.Duration
	PMPNElapsed time.Duration
}

// AnytimeResult is the two-part anytime answer, each part ascending.
type AnytimeResult struct {
	Guaranteed []graph.NodeID
	Maybe      []graph.NodeID
	Stats      AnytimeStats
}

// QueryAnytime answers one reverse top-k query approximately under the
// given ε budget, with the given intra-query worker count (≤ 0 selects
// GOMAXPROCS). Safe for concurrent use; answers are deterministic at any
// worker setting.
func (v *View) QueryAnytime(q graph.NodeID, k int, opts AnytimeOptions, workers int) (*AnytimeResult, error) {
	if math.IsNaN(opts.Eps) || opts.Eps < 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("core: eps=%v outside [0,1)", opts.Eps)
	}
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	r, err := e.start(q, k, e.converges())
	if err != nil {
		return nil, err
	}
	if err := r.Rounds(opts.Eps); err != nil {
		return nil, err
	}
	s := r.screens[0]
	slices.Sort(s.hits)
	stats := r.Stats()
	stats.Query, stats.Eps = q, opts.Eps
	return &AnytimeResult{Guaranteed: s.hits, Maybe: s.ids, Stats: stats}, nil
}
