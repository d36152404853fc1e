package rwr

import (
	"fmt"

	"repro/internal/graph"
)

// This file holds the transposed matvec, PMPN's one kernel (the forward
// push kernel is in spmmfwd.go), over the CSR — the one graph type; an edit
// batch publishes a patched CSR (graph.Graph.Apply).
//
// A block-aligned range (the dense PMPN sweep: one worker's [0, n), or a
// worker segment) is swept in the graph's degree order (graph.DegreeRuns):
// block by block, equal-degree run by run, four rows at a time through one
// loop of the run's degree, with four independent accumulators. The trip
// count is fixed along a run and four add chains overlap, so a whole-graph
// sweep of the benchmark's web fixture costs 1.0 ns/edge instead of the
// one-row loop's 2.7 (one core of a 2-core Xeon), yet each row still sums its
// own terms in its own neighbour order, into its own entry. Visiting rows in
// another order changes no bit: the result of a row depends on nothing but x
// and the row. An unaligned range — a run of the ball phase — takes the
// one-row loop.
//
// Normalization multiplies by the inverse out-weight instead of dividing:
// the CSR precomputes 1/TotalOutWeight when it is built (rejecting subnormal
// weights, so the inverse is always finite — no NaN can enter a column).

// MulTransitionTRange computes dst[u] = (Aᵀ·x)(u) for u ∈ [lo, hi) only.
// Because (Aᵀx)(u) needs only u's own out-neighbors, each row is a gather
// over u's out-adjacency: dst[u] = Σ_{v ∈ out(u)} w(u,v)/W(u) · x[v].
// Entries outside the range are left untouched, and each row is accumulated
// on its own, so covering [0, n) with disjoint ranges — in any partition —
// gives the same bits. This is the unit of work of the sharded PMPN
// iteration.
func MulTransitionTRange(g *graph.Graph, x, dst []float64, lo, hi int) {
	if len(x) != g.N() || len(dst) != g.N() {
		panic(fmt.Sprintf("rwr: MulTransitionTRange dimension mismatch: n=%d len(x)=%d len(dst)=%d", g.N(), len(x), len(dst)))
	}
	if lo < 0 || hi > g.N() || lo > hi {
		panic(fmt.Sprintf("rwr: MulTransitionTRange range [%d,%d) outside [0,%d)", lo, hi, g.N()))
	}
	if lo%graph.RowBlock != 0 || hi%graph.RowBlock != 0 && hi != g.N() {
		for u := graph.NodeID(lo); int(u) < hi; u++ {
			gatherRowCSR(g, x, dst, u)
		}
		return
	}
	for b := lo / graph.RowBlock; b*graph.RowBlock < hi; b++ {
		rows, runs := g.DegreeRuns(b)
		for r := 1; r < len(runs); r++ {
			gatherRunCSR(g, x, dst, rows[runs[r-1]:runs[r]])
		}
	}
}

// gatherRunCSR computes the rows of one equal-degree run four at a time: one
// loop of the run's degree steps four independent accumulators, each through
// its own row's neighbours in order, so the four add chains overlap and every
// row gets the bits gatherRowCSR would give it. The rows left over go one by
// one.
func gatherRunCSR(g *graph.Graph, x, dst []float64, run []graph.NodeID) {
	i := 0
	for ; i+4 <= len(run); i += 4 {
		u0, u1, u2, u3 := run[i], run[i+1], run[i+2], run[i+3]
		n0 := g.OutNeighbors(u0)
		d := len(n0)
		n1, n2, n3 := g.OutNeighbors(u1)[:d], g.OutNeighbors(u2)[:d], g.OutNeighbors(u3)[:d]
		var a0, a1, a2, a3 float64
		if w0 := g.OutWeightsOf(u0); w0 == nil {
			for j, v := range n0 {
				a0 += x[v]
				a1 += x[n1[j]]
				a2 += x[n2[j]]
				a3 += x[n3[j]]
			}
		} else {
			w0 = w0[:d]
			w1, w2, w3 := g.OutWeightsOf(u1)[:d], g.OutWeightsOf(u2)[:d], g.OutWeightsOf(u3)[:d]
			for j, v := range n0 {
				a0 += w0[j] * x[v]
				a1 += w1[j] * x[n1[j]]
				a2 += w2[j] * x[n2[j]]
				a3 += w3[j] * x[n3[j]]
			}
		}
		dst[u0] = a0 * g.InvTotalOutWeight(u0)
		dst[u1] = a1 * g.InvTotalOutWeight(u1)
		dst[u2] = a2 * g.InvTotalOutWeight(u2)
		dst[u3] = a3 * g.InvTotalOutWeight(u3)
	}
	for ; i < len(run); i++ {
		gatherRowCSR(g, x, dst, run[i])
	}
}

// gatherRowCSR computes row u alone.
func gatherRowCSR(g *graph.Graph, x, dst []float64, u graph.NodeID) {
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
