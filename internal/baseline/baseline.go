// Package baseline implements the two brute-force comparators of Fig. 8:
//
//   - IBF ("infeasible brute force"): materialize the entire proximity
//     matrix P once; each query then costs a single row scan. Memory is
//     O(n²) — 6.7TB for Web-google in the paper — hence "infeasible".
//   - FBF ("feasible brute force"): precompute only each node's exact
//     top-K proximity values (still a full P computation's worth of work,
//     but O(K·n) memory); each query runs PMPN (Algorithm 2) and compares
//     against the cached thresholds.
//
// Both give exact answers and share the ≥ membership rule with the core
// engine.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// IBF is the fully materialized brute-force evaluator.
type IBF struct {
	n    int
	k    int
	p    rwr.Params
	cols [][]float64 // cols[u] = p_u
	topK [][]float64 // topK[u] = exact p̂_u(1:K), descending
	// BuildElapsed is the one-off precomputation cost (the tall first
	// step of the IBF curve in Fig. 8).
	BuildElapsed time.Duration
}

// BuildIBF computes the entire proximity matrix (refusing graphs larger
// than rwr.MaxMatrixNodes) plus each column's exact top-K values.
func BuildIBF(g *graph.Graph, maxK int, p rwr.Params, workers int) (*IBF, error) {
	if maxK <= 0 {
		return nil, fmt.Errorf("baseline: maxK must be positive, got %d", maxK)
	}
	start := time.Now()
	cols, err := rwr.ProximityMatrix(g, p, workers)
	if err != nil {
		return nil, err
	}
	b := &IBF{n: g.N(), k: maxK, p: p, cols: cols, topK: make([][]float64, g.N())}
	for u := 0; u < g.N(); u++ {
		b.topK[u] = vecmath.TopKValues(cols[u], maxK)
	}
	b.BuildElapsed = time.Since(start)
	return b, nil
}

// Query returns the reverse top-k set of q at the minimal possible cost:
// one pass over row q of the materialized matrix.
func (b *IBF) Query(q graph.NodeID, k int) ([]graph.NodeID, error) {
	if int(q) < 0 || int(q) >= b.n {
		return nil, fmt.Errorf("baseline: query node %d out of range [0,%d)", q, b.n)
	}
	if k <= 0 || k > b.k {
		return nil, fmt.Errorf("baseline: k=%d outside [1,%d]", k, b.k)
	}
	var out []graph.NodeID
	for u := 0; u < b.n; u++ {
		if b.cols[u][q] >= b.topK[u][k-1] {
			out = append(out, graph.NodeID(u))
		}
	}
	return out, nil
}

// MemoryBytes returns the resident footprint: the full matrix plus the
// cached thresholds.
func (b *IBF) MemoryBytes() int64 {
	return int64(b.n)*int64(b.n)*8 + int64(b.n)*int64(b.k)*8
}

// FBF is the feasible brute-force evaluator: exact thresholds, per-query
// PMPN.
type FBF struct {
	g    *graph.Graph
	k    int
	p    rwr.Params
	topK [][]float64
	// BuildElapsed is the one-off threshold precomputation cost — the
	// same O(n·m) as IBF's, but without retaining P.
	BuildElapsed time.Duration
}

// BuildFBF computes each node's exact top-K proximity values in parallel
// and discards the vectors.
func BuildFBF(g *graph.Graph, maxK int, p rwr.Params, workers int) (*FBF, error) {
	if maxK <= 0 {
		return nil, fmt.Errorf("baseline: maxK must be positive, got %d", maxK)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	b := &FBF{g: g, k: maxK, p: p, topK: make([][]float64, g.N())}
	err := vecmath.ForEach(g.N(), workers, func(_, u int) error {
		res, err := rwr.ProximityVector(g, graph.NodeID(u), p)
		if err != nil {
			return fmt.Errorf("baseline: node %d: %w", u, err)
		}
		b.topK[u] = vecmath.TopKValues(res.Vector, maxK)
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.BuildElapsed = time.Since(start)
	return b, nil
}

// Query runs PMPN to obtain the exact proximities to q and screens them
// against the cached exact thresholds.
func (b *FBF) Query(q graph.NodeID, k int) ([]graph.NodeID, error) {
	if int(q) < 0 || int(q) >= b.g.N() {
		return nil, fmt.Errorf("baseline: query node %d out of range [0,%d)", q, b.g.N())
	}
	if k <= 0 || k > b.k {
		return nil, fmt.Errorf("baseline: k=%d outside [1,%d]", k, b.k)
	}
	res, err := rwr.ProximityTo(b.g, q, b.p)
	if err != nil {
		return nil, err
	}
	var out []graph.NodeID
	// PMPN values carry ε-level noise relative to the power-method
	// thresholds; absorb it exactly like the core engine does.
	const tieTol = 1e-9
	for u := 0; u < b.g.N(); u++ {
		if res.Vector[u] >= b.topK[u][k-1]-tieTol {
			out = append(out, graph.NodeID(u))
		}
	}
	return out, nil
}

// MemoryBytes returns the resident footprint: thresholds only.
func (b *FBF) MemoryBytes() int64 {
	return int64(b.g.N()) * int64(b.k) * 8
}
