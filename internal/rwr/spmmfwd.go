package rwr

import (
	"repro/internal/graph"
	"repro/internal/vecmath"
)

// Forward SpMM tier: B power-method columns — one per origin node, each the
// proximity vector p_u — advance together in one node-major slab (spmm.go runs
// it), sharing every adjacency traversal. This is the forward
// method's one solver, and the engine's exact-fallback batcher: a query whose
// refinement leaves several candidates undecided resolves them all with one
// slab sweep instead of streaming the graph once per candidate.
//
// The sweep has one form, the push (Lofgren's forward push, PAPERS.md), over
// the CSR — the one graph type. It walks SOURCE rows in ascending order,
// skips a source whose slab row is all zero and adds x_j(u)·inv(u) into each
// out-neighbor's row.
// It takes a row list — the slab's forward ball (spmm.go, ball.go), which
// holds every source that can be non-zero and every row they push into — so
// that a sweep whose columns have not spread far clears and scans those rows
// and no others; nil means every row.
//
// Per column the push is the scalar scatter over out-lists: every dst entry
// receives its addends in ascending source order, the addends are the same
// expressions, and the ones a skipped row would add are +0 (x ≥ 0, inv and
// weights > 0), which leave a sum's bits unchanged. So every column is the
// same at any batch width and under any ball.

// spmmPush computes dst = A·x for an n×w slab in push form (see the file
// comment), without touching the out-edges of all-zero source rows.
// A non-nil rows (ascending) restricts the sweep to those rows: only they are
// cleared in dst and pushed from, which is the whole product when x is zero
// outside rows and rows holds every out-neighbour of x's support — the slab's
// forward ball. Every other row of dst is left as it was.
func spmmPush(g *graph.Graph, x, dst []float64, w int, rows []graph.NodeID) {
	count := g.N()
	if rows == nil {
		clear(dst[:count*w])
	} else {
		count = len(rows)
		for _, u := range rows {
			clear(dst[int(u)*w : int(u)*w+w])
		}
	}
	if w == 1 {
		// The lone-fallback shape, without the per-edge row slicing.
		push := func(u graph.NodeID, xv float64) {
			xv *= g.InvTotalOutWeight(u)
			if ws := g.OutWeightsOf(u); ws == nil {
				for _, v := range g.OutNeighbors(u) {
					dst[v] += xv
				}
			} else {
				for i, v := range g.OutNeighbors(u) {
					dst[v] += ws[i] * xv
				}
			}
		}
		if rows == nil {
			for u, xv := range x[:count] {
				if xv != 0 {
					push(graph.NodeID(u), xv)
				}
			}
		}
		for _, u := range rows {
			if xv := x[u]; xv != 0 {
				push(u, xv)
			}
		}
		return
	}
	for i := 0; i < count; i++ {
		u := graph.NodeID(i)
		if rows != nil {
			u = rows[i]
		}
		xr := x[int(u)*w : int(u)*w+w]
		if allZero(xr) {
			continue
		}
		nbrs := g.OutNeighbors(u)
		ws := g.OutWeightsOf(u)
		inv := g.InvTotalOutWeight(u)
		if ws == nil {
			for _, v := range nbrs {
				row := dst[int(v)*w : int(v)*w+w]
				for j, xv := range xr {
					row[j] += xv * inv
				}
			}
		} else {
			for i, v := range nbrs {
				wi := ws[i]
				row := dst[int(v)*w : int(v)*w+w]
				for j, xv := range xr {
					row[j] += wi * (xv * inv)
				}
			}
		}
	}
}

func allZero(xs []float64) bool {
	for _, v := range xs {
		if v != 0 {
			return false
		}
	}
	return true
}

// ProximityVectorBatchFunc runs the SpMM-batched forward power method for
// all origins at once, on the calling goroutine, and invokes retire(i, res,
// err) between iterations as each origin's column converges (err == nil) or
// the iteration cap is hit (err != nil). Each retired Result — vector,
// residual and iteration count — is the same at any batch width (the plain
// scalar power loop's, spmm.go), and converged columns leave the slab without
// stalling the survivors. A non-nil probe may stop columns early (see
// ColumnProbe); those get no retire call. Validation failures return an error
// before any probe or retire call. ballIters counts the column-iterations the
// slab swept over its forward ball rather than over all n rows (spmm.go) —
// observability only, the results do not depend on it.
func ProximityVectorBatchFunc(g *graph.Graph, origins []graph.NodeID, p Params, probe ColumnProbe, retire func(i int, res Result, err error)) (ballIters int, err error) {
	return spmmBatch(g, origins, p, g.N()/slabBallDivisor, probe, retire)
}

// ProximityVectorBatch is the collect-everything form of
// ProximityVectorBatchFunc, with the origins split into at most workers
// (≤ 0 selects GOMAXPROCS) contiguous shares, one slab each, run
// concurrently. No reduction crosses columns, so results[i] is
// ProximityVector(g, origins[i], p) bit for bit at every worker count. The
// returned error is a validation failure (no results) or the non-convergence
// of the lowest failing column (results still filled).
func ProximityVectorBatch(g *graph.Graph, origins []graph.NodeID, p Params, workers int) ([]Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	results := make([]Result, len(origins))
	shares := vecmath.Split(len(origins), vecmath.Workers(workers))
	errs := make([]error, len(shares))
	colErrs := make([]error, len(shares))
	vecmath.Parallel(len(shares), func(s int) {
		lo, hi := shares[s].Lo, shares[s].Hi
		_, errs[s] = ProximityVectorBatchFunc(g, origins[lo:hi], p, nil, func(i int, res Result, err error) {
			results[lo+i] = res
			if err != nil && colErrs[s] == nil {
				colErrs[s] = err
			}
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, err := range colErrs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
