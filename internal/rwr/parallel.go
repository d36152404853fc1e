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

// iterateParallel runs the fixed-point loop of iterate with the per-iteration
// step sharded across block-aligned row segments, one per worker, numbering
// its iterations from first (1 for a run that starts at x⁰; ProximityToParallel
// hands over mid-run). The step callback must fill dst[r.Lo:r.Hi] from cur
// without touching other ranges. Workers persist across iterations (spawned
// once per call); buffers are allocated once and reused. The convergence
// residual is reduced per fixed block in block order — on the single-segment
// inline path too — so the returned Result does not depend on workers.
func iterateParallel(x, next []float64, p Params, workers, first int, step func(cur, dst []float64, r vecmath.Range)) (Result, error) {
	n := len(x)
	segs := blockSegments(n, workers)
	partial := make([]float64, (n+residualBlock-1)/residualBlock)

	// cur/dst are published to the workers by the start sends (the channel
	// send/recv pairs establish the happens-before edges; each worker writes
	// only its own dst range and partial blocks).
	var cur, dst []float64
	sweep := func() {
		all := vecmath.Range{Lo: 0, Hi: n}
		step(cur, dst, all)
		blockReduce(cur, dst, all, partial)
	}
	if len(segs) > 1 {
		start := make([]chan struct{}, len(segs))
		for i := range start {
			start[i] = make(chan struct{})
		}
		done := make(chan struct{}, len(segs))
		for i, seg := range segs {
			go func(i int, seg vecmath.Range) {
				for range start[i] {
					step(cur, dst, seg)
					blockReduce(cur, dst, seg, partial)
					done <- struct{}{}
				}
			}(i, seg)
		}
		defer func() {
			for _, ch := range start {
				close(ch)
			}
		}()
		sweep = func() {
			for _, ch := range start {
				ch <- struct{}{}
			}
			for range segs {
				<-done
			}
		}
	}

	var res Result
	for res.Iterations = first; res.Iterations <= p.MaxIters; res.Iterations++ {
		cur, dst = x, next
		sweep()
		res.Residual = 0
		for _, d := range partial {
			res.Residual += d
		}
		x, next = next, x
		if res.Residual < p.Eps {
			res.Vector = x
			return res, nil
		}
	}
	res.Vector = x
	return res, errNotConverged(p, res.Residual)
}

// normWorkers maps the workers convention (≤ 0 selects GOMAXPROCS) shared by
// all parallel entry points.
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ProximityToParallel is ProximityTo (Algorithm 2, PMPN) restricted to the
// rows that can be non-zero. Started from e_q, the iterate x^t is supported on
// q's backward ball of radius t: row u of Aᵀ·x gathers u's out-neighbours, so
// it leaves zero only once one of them has. While that ball holds fewer than
// n/ballDenseDivisor rows, each iteration gathers, scales, restarts and
// block-reduces only the ball's rows, ascending, on the calling goroutine;
// once the ball reaches that size the dense loop — sharded over block-aligned
// row ranges across workers (≤ 0 selects GOMAXPROCS) — continues from the
// same iterate and iteration count.
//
// The two phases are one iteration bit for bit. Weights are positive and the
// inverse normalizers finite, so every row the ball phase skips is +0 in both
// iterates of the dense sweep and adds +0 to its block of the residual; the
// ball's rows are accumulated in the same neighbour order and reduced in the
// same ascending order inside the same ascending blocks. Hence the returned
// vector, residual and iteration count equal the dense loop's for every
// worker count and every view (TestProximityToParallelBallBitIdentical).
//
// A run that ends without ever handing over also returns the ball as
// Result.Rows: the only rows it wrote, so a caller can visit the vector's
// support without scanning n entries. After a hand-over Rows is nil.
func ProximityToParallel[G graph.View](g G, q graph.NodeID, p Params, workers int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := g.N()
	if int(q) < 0 || int(q) >= n {
		return Result{}, fmt.Errorf("rwr: node %d out of range [0,%d)", q, n)
	}
	x := make([]float64, n)
	next := make([]float64, n)
	x[q] = 1
	oneMinus := 1 - p.Alpha
	ball := newBackwardBall(n, q)
	var res Result
	for res.Iterations = 1; res.Iterations <= p.MaxIters; res.Iterations++ {
		if !growBall(g, ball, n/ballDenseDivisor) {
			return pmpnDense(g, q, p, workers, x, next, res.Iterations)
		}
		rows := ball.rows
		for i := 0; i < len(rows); {
			// One kernel call per run of consecutive rows.
			lo := int(rows[i])
			hi := lo + 1
			for i++; i < len(rows) && int(rows[i]) == hi; i++ {
				hi++
			}
			MulTransitionTRange(g, x, next, lo, hi)
		}
		for _, u := range rows {
			next[u] *= oneMinus
		}
		next[q] += p.Alpha
		res.Residual = ballResidual(x, next, rows)
		x, next = next, x
		if res.Residual < p.Eps {
			res.Vector, res.Rows = x, ball.rows
			return res, nil
		}
	}
	res.Vector, res.Rows = x, ball.rows
	return res, errNotConverged(p, res.Residual)
}

// pmpnDense runs PMPN iterations first, first+1, … from the iterate x as full
// sweeps sharded across workers: ProximityToParallel's second phase, and —
// run from x = e_q, first = 1 — the reference its bit-identity test compares
// the two phases against.
func pmpnDense[G graph.View](g G, q graph.NodeID, p Params, workers int, x, next []float64, first int) (Result, error) {
	return iterateParallel(x, next, p, normWorkers(workers), first, pmpnStep(g, q, p))
}

// pmpnStep returns one PMPN sweep over a row range:
// dst[r] = ((1−α)·Aᵀ·cur + α·e_q)[r].
func pmpnStep[G graph.View](g G, q graph.NodeID, p Params) func(cur, dst []float64, r vecmath.Range) {
	oneMinus := 1 - p.Alpha
	return func(cur, dst []float64, r vecmath.Range) {
		MulTransitionTRange(g, cur, dst, r.Lo, r.Hi)
		for i := r.Lo; i < r.Hi; i++ {
			dst[i] *= oneMinus
		}
		if r.Lo <= int(q) && int(q) < r.Hi {
			dst[q] += p.Alpha
		}
	}
}

// ProximityVectorParallel is ProximityVector (the forward power method) with
// each iteration sharded across workers (≤ 0 selects GOMAXPROCS). The
// forward matvec is evaluated in gather form (MulTransitionRange) so each
// output row is owned by exactly one worker; the result is identical for
// every worker count. Against the sequential scatter-based ProximityVector
// every iterate is bit-identical on source-ordered adjacency (see
// MulTransitionRange); the two solvers differ only in how they sum the
// stopping residual — fixed blocks here, one flat pass there — which can
// move the last bits of the reported Residual and, when a residual lands
// within those bits of ε, the iteration the loop stops at.
func ProximityVectorParallel[G graph.View](g G, u graph.NodeID, p Params, workers int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if int(u) < 0 || int(u) >= g.N() {
		return Result{}, fmt.Errorf("rwr: node %d out of range [0,%d)", u, g.N())
	}
	workers = normWorkers(workers)
	x := make([]float64, g.N())
	next := make([]float64, g.N())
	x[u] = 1
	oneMinus := 1 - p.Alpha
	return iterateParallel(x, next, p, workers, 1, func(cur, dst []float64, r vecmath.Range) {
		MulTransitionRange(g, cur, dst, r.Lo, r.Hi)
		for i := r.Lo; i < r.Hi; i++ {
			dst[i] *= oneMinus
		}
		if r.Lo <= int(u) && int(u) < r.Hi {
			dst[u] += p.Alpha
		}
	})
}
