package rwr

import (
	"fmt"
	"runtime"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// MulTransitionTRange computes dst[u] = (Aᵀ·x)(u) for u ∈ [lo, hi) only.
// Entries outside the range are left untouched. Each row is a gather over
// u's own out-adjacency accumulated in the same order as MulTransitionT, so
// covering [0, n) with disjoint ranges — in any partition — reproduces
// MulTransitionT bit for bit. This is the unit of work of the parallel PMPN
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

// MulTransitionRange computes dst[v] = (A·x)(v) for v ∈ [lo, hi) as a gather
// over v's in-adjacency: dst[v] = Σ_{u ∈ in(v)} w(u,v)/W(u) · x[u]. Entries
// outside the range are untouched.
//
// Unlike MulTransition — a scatter over out-edges whose additions interleave
// across destinations — each output here is accumulated independently in
// in-edge order, so the result is identical for ANY partition of [0, n);
// the parallel power method builds on this form. It is also bit-identical
// to the scatter result whenever in-neighbor lists ascend by source, as
// both in-tree views guarantee (graph.Graph.InNeighbors): the scatter walks
// sources in ascending order, so every dst entry receives the same addends
// in the same order, and the zero-x sources the scatter skips contribute
// +0. Only a third-party View with another in-list order can make the two
// forms differ, and then by the few ulps of a reassociated sum.
func MulTransitionRange[G graph.View](g G, x, dst []float64, lo, hi int) {
	if len(x) != g.N() || len(dst) != g.N() {
		panic(fmt.Sprintf("rwr: MulTransitionRange dimension mismatch: n=%d len(x)=%d len(dst)=%d", g.N(), len(x), len(dst)))
	}
	if lo < 0 || hi > g.N() || lo > hi {
		panic(fmt.Sprintf("rwr: MulTransitionRange range [%d,%d) outside [0,%d)", lo, hi, g.N()))
	}
	switch cg := any(g).(type) {
	case *graph.Graph:
		mulTransitionRangeCSR(cg, x, dst, lo, hi)
	case *graph.Overlay:
		mulTransitionRangeOverlay(cg, x, dst, lo, hi)
	default:
		mulTransitionRangeGeneric(g, x, dst, lo, hi)
	}
}

// residualBlock is the fixed granularity of the parallel convergence check:
// per-block L1 differences are reduced in block order, so the residual — and
// with it the iteration count and the converged vector — is bit-identical
// for every worker count. Worker segments are block-aligned so a block never
// straddles two workers. 256 rows (≈ a few thousand flops on typical
// degrees) amortizes the synchronization per block comfortably.
const residualBlock = 256

// blockSegments partitions [0, n) into at most workers block-aligned
// contiguous segments (the trailing segment may end off-alignment at n).
func blockSegments(n, workers int) []vecmath.Range {
	nblocks := (n + residualBlock - 1) / residualBlock
	bsegs := vecmath.Split(nblocks, workers)
	segs := make([]vecmath.Range, len(bsegs))
	for i, bs := range bsegs {
		lo := bs.Lo * residualBlock
		hi := bs.Hi * residualBlock
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
	for lo := seg.Lo; lo < seg.Hi; lo += residualBlock {
		hi := lo + residualBlock
		if hi > seg.Hi {
			hi = seg.Hi
		}
		partial[lo/residualBlock] = vecmath.L1DiffRange(x, y, lo, hi)
	}
}

// normWorkers maps the workers convention (≤ 0 selects GOMAXPROCS) shared by
// all parallel entry points.
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ProximityToParallel is ProximityTo (Algorithm 2, PMPN) run by the sharded
// driver: a ToStepper stepped to convergence, restricted to q's backward ball
// while that is small and sharded across workers (≤ 0 selects GOMAXPROCS)
// after — see the ToStepper type doc. The returned vector, residual and
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

// restartStep returns one power-iteration sweep over a row range,
// dst[r] = ((1−α)·M·cur + α·e_origin)[r], for the row-range matvec mul
// (MulTransitionTRange for PMPN, MulTransitionRange for the forward method).
func restartStep(mul func(x, dst []float64, lo, hi int), origin graph.NodeID, p Params) func(cur, dst []float64, r vecmath.Range) {
	oneMinus := 1 - p.Alpha
	return func(cur, dst []float64, r vecmath.Range) {
		mul(cur, dst, r.Lo, r.Hi)
		for i := r.Lo; i < r.Hi; i++ {
			dst[i] *= oneMinus
		}
		if r.Lo <= int(origin) && int(origin) < r.Hi {
			dst[origin] += p.Alpha
		}
	}
}

// ProximityVectorParallel is ProximityVector (the forward power method) with
// each iteration sharded across workers (≤ 0 selects GOMAXPROCS): the
// stepper's dense sweep over the forward step, with no ball phase. The
// forward matvec is evaluated in gather form (MulTransitionRange) so each
// output row is owned by exactly one worker; the result is identical for
// every worker count. Against the sequential scatter-based ProximityVector
// every iterate is bit-identical on source-ordered adjacency (see
// MulTransitionRange); the two solvers differ only in how they sum the
// stopping residual — fixed blocks here, one flat pass there — which can
// move the last bits of the reported Residual and, when a residual lands
// within those bits of ε, the iteration the loop stops at.
func ProximityVectorParallel[G graph.View](g G, u graph.NodeID, p Params, workers int) (Result, error) {
	mul := func(x, dst []float64, lo, hi int) { MulTransitionRange(g, x, dst, lo, hi) }
	s, err := newStepper(g.N(), u, p, workers, restartStep(mul, u, p))
	if err != nil {
		return Result{}, err
	}
	return s.run()
}
