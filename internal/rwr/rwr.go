// Package rwr implements the random-walk-with-restart proximity machinery of
// the paper: the transition operator of §2.1 (never materialized as a
// matrix), the iterative Power Method for a node's proximity vector p_u
// (Eq. 1/12), the transposed power method PMPN of Algorithm 2 / Theorem 2
// for the proximities from all nodes TO a query node, full proximity-matrix
// construction for brute-force baselines, PageRank, and the Monte Carlo
// estimators discussed in §6. The sharded PMPN iteration has one driver,
// ToStepper (ProximityToParallel steps it to convergence); ProximityTo is the
// serial reference. ProximityVectorBatch/ProximityVectorBatchFunc are the
// forward SpMM tier: the power-method columns of a set of origin nodes advance
// in one node-major slab, sharing every CSR traversal, with per-column
// convergence and retirement — each column bit-identical to its scalar
// ProximityVectorParallel run — which the query engine uses to resolve all of
// a sweep's exact fallbacks at once. Both iterations start at a unit vector
// and sweep only the rows it can have reached — one ball, grown backward for
// PMPN and forward for the slab (ball.go) — before handing over to their dense
// loops.
package rwr

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/vecmath"
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

// PredictedIters returns the iteration bound of Theorem 2(c):
// log(ε/α)/log(1−α), rounded up.
func (p Params) PredictedIters() int {
	// Solve (1−α)^i · α < ε.
	iters := 0
	v := p.Alpha
	for v >= p.Eps && iters < p.MaxIters {
		v *= 1 - p.Alpha
		iters++
	}
	return iters
}

// MulTransition computes dst = A·x where A is the column-stochastic
// transition matrix (a_{i,j} = w(j,i)/W(j) for edge j→i). dst is cleared
// first. Cost O(n+m). Generic over graph.View: base CSR graphs and
// overlays dispatch to devirtualized concrete loops (see kernels.go), so
// the pure-CSR hot path pays nothing for the abstraction.
func MulTransition[G graph.View](g G, x, dst []float64) {
	if len(x) != g.N() || len(dst) != g.N() {
		panic(fmt.Sprintf("rwr: MulTransition dimension mismatch: n=%d len(x)=%d len(dst)=%d", g.N(), len(x), len(dst)))
	}
	vecmath.Zero(dst)
	switch cg := any(g).(type) {
	case *graph.Graph:
		mulTransitionCSR(cg, x, dst)
	case *graph.Overlay:
		mulTransitionOverlay(cg, x, dst)
	default:
		mulTransitionGeneric(g, x, dst)
	}
}

// MulTransitionT computes dst = Aᵀ·x. Because (Aᵀx)(u) only needs u's own
// out-neighbors, this is a gather over out-adjacency: dst[u] =
// Σ_{v ∈ out(u)} w(u,v)/W(u) · x[v]. dst is cleared first. Cost O(n+m).
func MulTransitionT[G graph.View](g G, x, dst []float64) {
	if len(x) != g.N() || len(dst) != g.N() {
		panic(fmt.Sprintf("rwr: MulTransitionT dimension mismatch: n=%d len(x)=%d len(dst)=%d", g.N(), len(x), len(dst)))
	}
	MulTransitionTRange(g, x, dst, 0, g.N())
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
	// q's backward ball) — through ProximityToParallel or ToStepper.Result;
	// a run that handed over to the dense sweep, the serial solvers and the
	// forward drivers leave it nil, which says nothing about the vector (a
	// slab shows its forward ball to a ColumnProbe's read instead).
	Rows []graph.NodeID
}

// ProximityVector computes p_u, the RWR proximity from u to every node, by
// the iterative Power Method of Eq. (12): x ← (1−α)·A·x + α·e_u, starting
// from e_u. The result is exact up to ε.
func ProximityVector[G graph.View](g G, u graph.NodeID, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if int(u) < 0 || int(u) >= g.N() {
		return Result{}, fmt.Errorf("rwr: node %d out of range [0,%d)", u, g.N())
	}
	x := make([]float64, g.N())
	next := make([]float64, g.N())
	x[u] = 1
	return iterate(x, next, p, func(cur, dst []float64) {
		MulTransition(g, cur, dst)
		vecmath.Scale(dst, 1-p.Alpha)
		dst[u] += p.Alpha
	})
}

// Personalized computes the personalized-PageRank vector P·v for an
// arbitrary preference distribution v (Eq. 3). v must be non-negative with
// L1 norm 1.
func Personalized[G graph.View](g G, v []float64, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if len(v) != g.N() {
		return Result{}, fmt.Errorf("rwr: preference vector has length %d, want %d", len(v), g.N())
	}
	var sum float64
	for _, w := range v {
		if w < 0 {
			return Result{}, errors.New("rwr: preference vector must be non-negative")
		}
		sum += w
	}
	if diff := sum - 1; diff > 1e-9 || diff < -1e-9 {
		return Result{}, fmt.Errorf("rwr: preference vector must sum to 1, got %g", sum)
	}
	x := vecmath.Clone(v)
	next := make([]float64, g.N())
	return iterate(x, next, p, func(cur, dst []float64) {
		MulTransition(g, cur, dst)
		for i := range dst {
			dst[i] = (1-p.Alpha)*dst[i] + p.Alpha*v[i]
		}
	})
}

// PageRank computes the global PageRank vector pr = (1/n)·P·e (Eq. 3).
func PageRank[G graph.View](g G, p Params) (Result, error) {
	if g.N() == 0 {
		return Result{}, errors.New("rwr: empty graph")
	}
	v := make([]float64, g.N())
	for i := range v {
		v[i] = 1 / float64(g.N())
	}
	return Personalized(g, v, p)
}

// ProximityTo implements Algorithm 2 (PMPN): it computes p_{q,*}, the exact
// RWR proximities from EVERY node to q, with the transposed iteration
// x ← (1−α)·Aᵀ·x + α·e_q of Eq. (13). Theorem 2 proves this converges to
// the q-th row of the proximity matrix at rate (1−α) from any start; we
// start from e_q. Cost O(m) per iteration — the same as computing a single
// proximity column, which is the paper's key enabling observation.
//
// The returned vector r satisfies r[u] = p_u(q).
func ProximityTo[G graph.View](g G, q graph.NodeID, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if int(q) < 0 || int(q) >= g.N() {
		return Result{}, fmt.Errorf("rwr: node %d out of range [0,%d)", q, g.N())
	}
	x := make([]float64, g.N())
	next := make([]float64, g.N())
	x[q] = 1
	return iterate(x, next, p, func(cur, dst []float64) {
		MulTransitionT(g, cur, dst)
		vecmath.Scale(dst, 1-p.Alpha)
		dst[q] += p.Alpha
	})
}

// PageRankContributions decomposes node q's PageRank into the per-node
// contributions that sum to it: contribution(u→q) = p_u(q)/n (Eq. 3 plus
// §1's observation that PageRank aggregates RWR proximities). This is the
// SpamRank-style module the paper highlights as a standalone application
// of Theorem 2: one PMPN run yields ALL contributions to q exactly.
//
// The returned vector c satisfies Σ_u c[u] = PageRank(q).
func PageRankContributions[G graph.View](g G, q graph.NodeID, p Params) (Result, error) {
	res, err := ProximityTo(g, q, p)
	if err != nil {
		return Result{}, err
	}
	vecmath.Scale(res.Vector, 1/float64(g.N()))
	return res, nil
}

// iterate runs the generic fixed-point loop with the full-vector L1 stopping
// rule shared by the sequential power-method variants.
func iterate(x, next []float64, p Params, step func(cur, dst []float64)) (Result, error) {
	var res Result
	for res.Iterations = 1; res.Iterations <= p.MaxIters; res.Iterations++ {
		step(x, next)
		res.Residual = vecmath.L1Diff(x, next)
		x, next = next, x
		if res.Residual < p.Eps {
			res.Vector = x
			return res, nil
		}
	}
	res.Vector = x
	return res, errNotConverged(p, res.Residual)
}

// errNotConverged is the error of a power iteration that hit Params.MaxIters.
func errNotConverged(p Params, residual float64) error {
	return fmt.Errorf("rwr: did not converge within %d iterations (residual %g)", p.MaxIters, residual)
}
