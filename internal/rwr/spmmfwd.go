package rwr

import (
	"repro/internal/graph"
)

// Forward SpMM tier: B power-method columns — one per origin node, each the
// proximity vector p_u of ProximityVectorParallel — advance together in one
// node-major slab (spmm.go has the driver), sharing every adjacency
// traversal. This is the engine's exact-fallback batcher: a query whose
// refinement leaves several candidates undecided resolves them all with one
// slab sweep instead of streaming the CSR once per candidate.
//
// Two kernel forms compute the same sweep. The gather kernels mirror
// mulTransitionRangeCSR/Overlay/Generic: each output row v gathers over v's
// in-neighbors in list order, multiplying by the same (precomputed or
// inline-computed) inverse normalizer, so any partition of the rows across
// workers reproduces the scalar run. The push kernels (Lofgren's forward
// push, PAPERS.md) walk SOURCE rows instead, skip a source whose slab row
// is all zero and add x_j(u)·inv(u) into each out-neighbor's row. They run
// whenever one call covers every row (a single-segment sweep: workers = 1,
// which is how core.Engine sweeps every fallback slab, whatever its own
// worker count), and take a row list — the slab driver's forward ball
// (spmm.go, ball.go), which holds every source that can be non-zero and every
// row they push into — so that a sweep whose columns have not spread far
// clears and scans those rows and no others; nil means every row.
// Row-sharded sweeps and third-party views keep the gather form, which is the
// one that partitions.
//
// Push ≡ gather bit for bit, given the adjacency order both in-tree views
// document: in-neighbor lists ascend by source. Walking sources in
// ascending order then hands every dst entry the same addends in the same
// order as its gather, the addends are the same expressions, and the ones
// push skips are +0 (x ≥ 0, inv and weights > 0), which leave a sum's bits
// unchanged. So every column stays bit-identical to its scalar run at any
// batch width and worker count, whichever kernel a sweep happens to take.

// spmmTransitionRangeCSR computes dst[v*w+j] = (A·x_j)(v) for v ∈ [lo, hi)
// and all w columns, accumulating each column in the same in-neighbor
// order as the scalar mulTransitionRangeCSR.
func spmmTransitionRangeCSR(g *graph.Graph, x, dst []float64, w, lo, hi int) {
	for v := lo; v < hi; v++ {
		nbrs := g.InNeighbors(graph.NodeID(v))
		ws := g.InWeightsOf(graph.NodeID(v))
		row := dst[v*w : v*w+w]
		for j := range row {
			row[j] = 0
		}
		if ws == nil {
			for _, u := range nbrs {
				inv := g.InvTotalOutWeight(u)
				xr := x[int(u)*w : int(u)*w+w]
				for j, xv := range xr {
					row[j] += xv * inv
				}
			}
		} else {
			for i, u := range nbrs {
				wi := ws[i]
				inv := g.InvTotalOutWeight(u)
				xr := x[int(u)*w : int(u)*w+w]
				for j, xv := range xr {
					row[j] += wi * (xv * inv)
				}
			}
		}
	}
}

func spmmTransitionRangeOverlay(g *graph.Overlay, x, dst []float64, w, lo, hi int) {
	for v := lo; v < hi; v++ {
		nbrs := g.InNeighbors(graph.NodeID(v))
		ws := g.InWeightsOf(graph.NodeID(v))
		row := dst[v*w : v*w+w]
		for j := range row {
			row[j] = 0
		}
		if ws == nil {
			for _, u := range nbrs {
				inv := g.InvTotalOutWeight(u)
				xr := x[int(u)*w : int(u)*w+w]
				for j, xv := range xr {
					row[j] += xv * inv
				}
			}
		} else {
			for i, u := range nbrs {
				wi := ws[i]
				inv := g.InvTotalOutWeight(u)
				xr := x[int(u)*w : int(u)*w+w]
				for j, xv := range xr {
					row[j] += wi * (xv * inv)
				}
			}
		}
	}
}

func spmmTransitionRangeGeneric[G graph.View](g G, x, dst []float64, w, lo, hi int) {
	for v := lo; v < hi; v++ {
		nbrs := g.InNeighbors(graph.NodeID(v))
		ws := g.InWeightsOf(graph.NodeID(v))
		row := dst[v*w : v*w+w]
		for j := range row {
			row[j] = 0
		}
		if ws == nil {
			for _, u := range nbrs {
				inv := 1 / g.TotalOutWeight(u)
				xr := x[int(u)*w : int(u)*w+w]
				for j, xv := range xr {
					row[j] += xv * inv
				}
			}
		} else {
			for i, u := range nbrs {
				wi := ws[i]
				inv := 1 / g.TotalOutWeight(u)
				xr := x[int(u)*w : int(u)*w+w]
				for j, xv := range xr {
					row[j] += wi * (xv * inv)
				}
			}
		}
	}
}

// spmmTransitionPushCSR computes dst = A·x for an n×w slab in push form (see
// the file comment): identical bits to spmmTransitionRangeCSR over [0, n),
// without touching the out-edges of all-zero source rows. A non-nil rows
// (ascending) restricts the sweep to those rows: only they are cleared in dst
// and pushed from, which is the whole product when x is zero outside rows and
// rows holds every out-neighbour of x's support — the slab driver's forward
// ball. Every other row of dst is left as it was.
func spmmTransitionPushCSR(g *graph.Graph, x, dst []float64, w int, rows []graph.NodeID) {
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

func spmmTransitionPushOverlay(g *graph.Overlay, x, dst []float64, w int, rows []graph.NodeID) {
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

// spmmPush runs the push kernel of an in-tree view over rows (nil = every
// row), reporting false for a third-party view, which has none.
func spmmPush[G graph.View](g G, x, dst []float64, w int, rows []graph.NodeID) bool {
	switch cg := any(g).(type) {
	case *graph.Graph:
		spmmTransitionPushCSR(cg, x, dst, w, rows)
	case *graph.Overlay:
		spmmTransitionPushOverlay(cg, x, dst, w, rows)
	default:
		return false
	}
	return true
}

// spmmTransitionRange dispatches to the devirtualized loop for the two
// in-tree view types (mirroring MulTransitionRange): the push kernel when
// the call covers every row, the gather kernel for a row shard.
func spmmTransitionRange[G graph.View](g G, x, dst []float64, w, lo, hi int) {
	if lo == 0 && hi == g.N() && spmmPush(g, x, dst, w, nil) {
		return
	}
	switch cg := any(g).(type) {
	case *graph.Graph:
		spmmTransitionRangeCSR(cg, x, dst, w, lo, hi)
	case *graph.Overlay:
		spmmTransitionRangeOverlay(cg, x, dst, w, lo, hi)
	default:
		spmmTransitionRangeGeneric(g, x, dst, w, lo, hi)
	}
}

// ProximityVectorBatchFunc runs the SpMM-batched forward power method for
// all origins at once and invokes retire(i, res, err) — on the
// coordinating goroutine, between iterations — as each origin's column
// converges (err == nil) or the iteration cap is hit (err != nil). Each
// retired Result is bit-identical to ProximityVectorParallel(g,
// origins[i], p, workers) — vector, residual and iteration count — at any
// batch width and worker count, and converged columns leave the slab
// without stalling the survivors. A non-nil probe may stop columns early
// (see ColumnProbe); those get no retire call. Validation failures return
// an error before any probe or retire call. ballIters counts the
// column-iterations the slab swept over its forward ball rather than over all
// n rows (spmm.go) — observability only, the results do not depend on it.
func ProximityVectorBatchFunc[G graph.View](g G, origins []graph.NodeID, p Params, workers int, probe ColumnProbe, retire func(i int, res Result, err error)) (ballIters int, err error) {
	return spmmBatch(g, origins, p, workers, g.N()/slabBallDivisor, probe, retire)
}

// ProximityVectorBatch is the collect-everything form of
// ProximityVectorBatchFunc: results[i] is bit-identical to
// ProximityVectorParallel(g, origins[i], p, workers). The returned error
// is a validation failure (no results) or the first per-column
// non-convergence (results still filled).
func ProximityVectorBatch[G graph.View](g G, origins []graph.NodeID, p Params, workers int) ([]Result, error) {
	results := make([]Result, len(origins))
	var colErr error
	if _, err := ProximityVectorBatchFunc(g, origins, p, workers, nil, func(i int, res Result, err error) {
		results[i] = res
		if err != nil && colErr == nil {
			colErr = err
		}
	}); err != nil {
		return nil, err
	}
	return results, colErr
}
