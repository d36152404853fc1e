// Package rwr implements the random-walk-with-restart proximity machinery of
// the paper: the transition operator of §2.1 (never materialized as a
// matrix), the Power Method for a node's proximity vector p_u (Eq. 1/12),
// the transposed power method PMPN of Algorithm 2 / Theorem 2 for the
// proximities from all nodes TO a query node, and full proximity-matrix
// construction for brute-force baselines.
//
// Each direction has one solver. PMPN is ToStepper, which gathers Aᵀ·x over
// out-lists (ProximityToParallel steps it to convergence, ProximityTo on one
// worker). The forward method is the slab of ProximityVectorBatch: the
// columns of a set of origins advance in one node-major slab, sharing every
// adjacency traversal, with per-column convergence and retirement, and A·x is
// pushed from each source row along its out-list (ProximityVector is one
// column). Both start at unit vectors and sweep only the rows the iterate can
// have reached — one ball, grown backward for PMPN and forward for the slab
// (ball.go) — before handing over to their dense loops.
package rwr

import (
	"fmt"

	"repro/internal/graph"
)

// Params bundles the RWR computation parameters used throughout the paper.
type Params struct {
	// Alpha is the restart probability (paper default 0.15).
	Alpha float64
	// Eps is the L1 convergence tolerance ε (paper default 1e-10).
	Eps float64
	// MaxIters caps iterations as a safety net; Theorem 2(c) predicts
	// convergence within log(ε/α)/log(1−α) iterations, so the default cap
	// of 10× that bound is never reached in practice.
	MaxIters int
}

// DefaultParams returns the parameter values used in the paper's evaluation
// (§5.2): α = 0.15, ε = 1e-10.
func DefaultParams() Params {
	return Params{Alpha: 0.15, Eps: 1e-10, MaxIters: 2000}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("rwr: alpha must be in (0,1), got %g", p.Alpha)
	}
	if p.Eps <= 0 {
		return fmt.Errorf("rwr: eps must be positive, got %g", p.Eps)
	}
	if p.MaxIters <= 0 {
		return fmt.Errorf("rwr: max iterations must be positive, got %d", p.MaxIters)
	}
	return nil
}

// Result carries a computed proximity vector together with convergence
// diagnostics.
type Result struct {
	// Vector is the converged proximity vector.
	Vector []float64
	// Iterations is the number of power iterations performed.
	Iterations int
	// Residual is the final L1 change between successive iterates.
	Residual float64
	// Rows, when non-nil, lists ascending every row Vector can be non-zero
	// in: each entry outside it is exactly +0 and was never written. Only a
	// ToStepper run that ended inside its ball phase sets it (Rows is then
	// q's backward ball) — through ProximityTo, ProximityToParallel or
	// ToStepper.Result; a run that handed over to the dense sweep and the
	// forward slab leave it nil, which says nothing about the vector (a slab
	// shows its forward ball to a ColumnProbe's read instead).
	Rows []graph.NodeID
}

// ProximityVector computes p_u, the RWR proximity from u to every node, by
// the iterative Power Method of Eq. (12): x ← (1−α)·A·x + α·e_u, starting
// from e_u. The result is exact up to ε. It is one column of the forward
// slab (ProximityVectorBatch): the push kernel, swept over u's forward ball
// until that covers half the graph.
func ProximityVector[G graph.View](g G, u graph.NodeID, p Params) (Result, error) {
	res, err := ProximityVectorBatch(g, []graph.NodeID{u}, p, 1)
	if res == nil {
		return Result{}, err
	}
	return res[0], err
}

// ProximityTo implements Algorithm 2 (PMPN): it computes p_{q,*}, the exact
// RWR proximities from EVERY node to q, with the transposed iteration
// x ← (1−α)·Aᵀ·x + α·e_q of Eq. (13). Theorem 2 proves this converges to
// the q-th row of the proximity matrix at rate (1−α) from any start; we
// start from e_q. Cost O(m) per iteration — the same as computing a single
// proximity column, which is the paper's key enabling observation. It is
// ProximityToParallel on one worker.
//
// The returned vector r satisfies r[u] = p_u(q).
func ProximityTo[G graph.View](g G, q graph.NodeID, p Params) (Result, error) {
	return ProximityToParallel(g, q, p, 1)
}

// errNotConverged is the error of a power iteration that hit Params.MaxIters.
func errNotConverged(p Params, residual float64) error {
	return fmt.Errorf("rwr: did not converge within %d iterations (residual %g)", p.MaxIters, residual)
}
