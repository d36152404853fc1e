package rwr

import (
	"repro/internal/graph"
	"repro/internal/vecmath"
)

// Both solvers check convergence at a fixed granularity, graph.RowBlock rows:
// per-block L1 differences are reduced in block order, so the residual — and
// with it the iteration count and the converged vector — is bit-identical
// for every worker count and for the ball phases, which skip whole blocks.
// Worker segments are block-aligned so a block never straddles two workers,
// and so each segment's transposed matvec can walk the CSR's per-block degree
// order (kernels.go).

// blockSegments partitions [0, n) into at most workers block-aligned
// contiguous segments (the trailing segment may end off-alignment at n).
func blockSegments(n, workers int) []vecmath.Range {
	nblocks := (n + graph.RowBlock - 1) / graph.RowBlock
	bsegs := vecmath.Split(nblocks, workers)
	segs := make([]vecmath.Range, len(bsegs))
	for i, bs := range bsegs {
		lo := bs.Lo * graph.RowBlock
		hi := bs.Hi * graph.RowBlock
		if hi > n {
			hi = n
		}
		segs[i] = vecmath.Range{Lo: lo, Hi: hi}
	}
	return segs
}

// blockReduce computes per-block L1 differences for the blocks covered by
// seg, writing them into partial (indexed by block number).
func blockReduce(x, y []float64, seg vecmath.Range, partial []float64) {
	for lo := seg.Lo; lo < seg.Hi; lo += graph.RowBlock {
		hi := lo + graph.RowBlock
		if hi > seg.Hi {
			hi = seg.Hi
		}
		partial[lo/graph.RowBlock] = vecmath.L1DiffRange(x, y, lo, hi)
	}
}

// ProximityToParallel is ProximityTo (Algorithm 2, PMPN) on workers (≤ 0
// selects GOMAXPROCS): a ToStepper stepped to convergence, restricted to q's
// backward ball while that is small and sharded across the workers after —
// see the ToStepper type doc. The returned vector, residual and
// iteration count are the same for every worker count and every view.
//
// A run that ends without ever handing over to the dense sweep also returns
// the ball as Result.Rows: the only rows it wrote, so a caller can visit the
// vector's support without scanning n entries. After a hand-over Rows is nil.
func ProximityToParallel[G graph.View](g G, q graph.NodeID, p Params, workers int) (Result, error) {
	s, err := NewToStepper(g, q, p, workers)
	if err != nil {
		return Result{}, err
	}
	return s.run()
}
