package rwr

import (
	"fmt"

	"repro/internal/graph"
)

// This file holds the transposed matvec, PMPN's one kernel (the forward
// push kernels are in spmmfwd.go). MulTransitionTRange is generic over
// graph.View, so every consumer — engines, index construction, the
// maintenance pipeline — runs on a base CSR or an Overlay unchanged; but
// generic method calls on pointer-shaped type parameters go through a
// dictionary and defeat inlining, so it type-switches to a devirtualized loop
// for the two in-tree view types. Each loop accumulates in exactly the same
// neighbor order, so CSR, overlay and generic paths produce bit-identical
// vectors.
//
// Normalization multiplies by the inverse out-weight instead of dividing:
// the CSR and Overlay precompute 1/TotalOutWeight at build/Apply time
// (rejecting subnormal weights, so the inverse is always finite — no NaN
// can enter a column), and the generic loop computes the same exactly
// rounded 1/TotalOutWeight(u) inline, keeping all paths bit-identical.

// MulTransitionTRange computes dst[u] = (Aᵀ·x)(u) for u ∈ [lo, hi) only.
// Because (Aᵀx)(u) needs only u's own out-neighbors, each row is a gather
// over u's out-adjacency: dst[u] = Σ_{v ∈ out(u)} w(u,v)/W(u) · x[v].
// Entries outside the range are left untouched, and each row is accumulated
// on its own, so covering [0, n) with disjoint ranges — in any partition —
// gives the same bits. This is the unit of work of the sharded PMPN
// iteration.
func MulTransitionTRange[G graph.View](g G, x, dst []float64, lo, hi int) {
	if len(x) != g.N() || len(dst) != g.N() {
		panic(fmt.Sprintf("rwr: MulTransitionTRange dimension mismatch: n=%d len(x)=%d len(dst)=%d", g.N(), len(x), len(dst)))
	}
	if lo < 0 || hi > g.N() || lo > hi {
		panic(fmt.Sprintf("rwr: MulTransitionTRange range [%d,%d) outside [0,%d)", lo, hi, g.N()))
	}
	switch cg := any(g).(type) {
	case *graph.Graph:
		mulTransitionTRangeCSR(cg, x, dst, lo, hi)
	case *graph.Overlay:
		mulTransitionTRangeOverlay(cg, x, dst, lo, hi)
	default:
		mulTransitionTRangeGeneric(g, x, dst, lo, hi)
	}
}

func mulTransitionTRangeCSR(g *graph.Graph, x, dst []float64, lo, hi int) {
	for u := graph.NodeID(lo); int(u) < hi; u++ {
		nbrs := g.OutNeighbors(u)
		ws := g.OutWeightsOf(u)
		var acc float64
		if ws == nil {
			for _, v := range nbrs {
				acc += x[v]
			}
		} else {
			for i, v := range nbrs {
				acc += ws[i] * x[v]
			}
		}
		dst[u] = acc * g.InvTotalOutWeight(u)
	}
}

func mulTransitionTRangeOverlay(g *graph.Overlay, x, dst []float64, lo, hi int) {
	for u := graph.NodeID(lo); int(u) < hi; u++ {
		nbrs := g.OutNeighbors(u)
		ws := g.OutWeightsOf(u)
		var acc float64
		if ws == nil {
			for _, v := range nbrs {
				acc += x[v]
			}
		} else {
			for i, v := range nbrs {
				acc += ws[i] * x[v]
			}
		}
		dst[u] = acc * g.InvTotalOutWeight(u)
	}
}

func mulTransitionTRangeGeneric[G graph.View](g G, x, dst []float64, lo, hi int) {
	for u := graph.NodeID(lo); int(u) < hi; u++ {
		nbrs := g.OutNeighbors(u)
		ws := g.OutWeightsOf(u)
		var acc float64
		if ws == nil {
			for _, v := range nbrs {
				acc += x[v]
			}
		} else {
			for i, v := range nbrs {
				acc += ws[i] * x[v]
			}
		}
		dst[u] = acc * (1 / g.TotalOutWeight(u))
	}
}
