package rwr

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// The slab driver of the forward SpMM tier (spmmfwd.go has the kernels and
// the entry points): B power-method columns live in one dense node-major slab
// (column j at x[u*w+j]) and every round runs ONE sweep of the transition
// matrix over all of them, amortizing the adjacency's memory traffic B ways.
// This is the forward method's one solver: ProximityVector is a slab of one
// column, ProximityVectorBatch runs one slab per share of its origins, and the
// engine's exact fallback runs one per chunk of its candidates.
//
// Bit-identity contract: per column, every floating-point operation — the
// source-order push accumulation, the multiply by the inverse normalizer, the
// (1−α) scale, the restart add, and the block-order residual reduction at
// graph.RowBlock granularity — is the operation sequence of the plain scalar
// power loop (scatter over out-lists in ascending source order, then scale,
// restart and a per-block residual), so each column's vector, residual and
// iteration count are the same at any batch width, whatever else shares the
// slab. A column that converges retires from the slab immediately (the
// survivors repack to a narrower stride) without stalling the rest.
//
// A slab starts in a ball phase, the forward twin of ToStepper's (ball.go):
// after t sweeps the columns are supported on the union of the origins'
// forward balls of radius t, and while that union holds fewer than
// n/slabBallDivisor rows an iteration clears, pushes from, scales, restarts
// and block-reduces those rows only, and retiring, probing and repacking copy
// or move only them; then the dense loop continues from the same buffers and
// iteration count. A skipped row is +0 in both iterates and adds +0 to its
// residual block, so nothing a caller sees differs from a slab that sweeps
// densely from the start (TestForwardBallBitIdentical).

// batchColumn tracks one live column of the slab.
type batchColumn struct {
	idx int          // caller's position in the origins slice
	q   graph.NodeID // restart node
}

// ColumnProbe lets a slab's caller stop a column before it converges. The
// slab calls it on its own goroutine after every iteration that
// leaves column i (the caller's position in the origins slice) unconverged,
// with the iteration count so far, the elementwise error bound
// tail = r_t·(1−α)/α on the column's current iterate x^t (r_t its L1
// residual; ToStepper's type doc proves the bound, and it holds for the
// forward iteration too because a column-stochastic A never grows an L1
// norm), and read, which copies x^t into a caller-owned n-vector — valid
// during the call only, so a probe that does not want to look this round
// pays nothing. read writes and returns the rows x^t can be non-zero in
// (ascending, as Result.Rows) while the slab is in its ball phase — x^t is +0
// at every other row and dst is left untouched there, whatever it held — and
// writes all n entries and returns nil after the hand-over. Returning true
// drops the column from the slab: it gets no retire call and no vector, the
// probe having taken what it needed. Columns that do converge are untouched
// by probing — bit-identical to an unprobed run. The tail is the L1 one, not
// ToStepper's L∞ change: the forward column iterates A = Pᵀ, whose ‖A‖∞ is
// the largest weighted in-flow of a row (in the hundreds at a hub of in-degree
// two thousand), so ‖x^t − x^{t−1}‖∞·(1−α)/α bounds no tail of the forward
// iteration.
type ColumnProbe func(i, iter int, tail float64, read func(dst []float64) []graph.NodeID) bool

// slabBallDivisor bounds the slab's ball phase: it runs while the union of the
// origins' forward balls holds fewer than n/slabBallDivisor rows — later than
// ToStepper's n/8 because a slab row costs up to 16 columns of clearing, scaling
// and residual, all of which the ball skips. Fallback phase of a 400-query
// k = 20 list through core.View on the benchmark's web fixture (229 fallbacks,
// 5 037 column-iterations; medians of 8): no ball 0.63 s, n/8 0.54, n/4 0.52,
// n/2 0.39 (no slab ever hands over: a web node reaches under half the graph),
// never handing over 0.40; on its social fixture (k = 10, 15 915
// column-iterations, 17 % of them before n/2) 0.69, 0.67, 0.72, 0.68 and 0.80.
const slabBallDivisor = 2

// spmmBatch is the slab driver behind ProximityVectorBatchFunc: the forward
// power method x ← (1−α)·A·x + α·e_origin with an L1 stopping rule, one column
// per origin — slab layout, push sweep (spmmPush), restart add, blocked
// residual reduction, per-column retirement and repacking — on the calling
// goroutine. probe may be nil. ballLimit is the row count that ends the ball
// phase (0: dense from the start); ballIters reports the column-iterations
// swept inside it.
func spmmBatch(g *graph.Graph, origins []graph.NodeID, p Params, ballLimit int, probe ColumnProbe, retire func(i int, res Result, err error)) (ballIters int, err error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n := g.N()
	for _, q := range origins {
		if int(q) < 0 || int(q) >= n {
			return 0, fmt.Errorf("rwr: node %d out of range [0,%d)", q, n)
		}
	}
	if len(origins) == 0 {
		return 0, nil
	}

	w := len(origins)
	x := make([]float64, n*w)
	next := make([]float64, n*w)
	cols := make([]batchColumn, w)
	for j, q := range origins {
		cols[j] = batchColumn{idx: j, q: q}
		x[int(q)*w+j] = 1
	}
	nblocks := (n + graph.RowBlock - 1) / graph.RowBlock
	partial := make([]float64, nblocks*w)
	colRes := make([]float64, w)
	oneMinus := 1 - p.Alpha
	width := w

	// fb is the union of the origins' forward balls while the slab is in its
	// ball phase (see the file comment), nil after the hand-over.
	fb := newBall(n, true, origins...)

	// sweep is one iteration cur → dst over rows (ascending; nil: all n): the
	// push, the (1−α) scale, the per-column restart add, and the per-(block,
	// column) L1 residual partials, in ascending row order within a block
	// (vecmath.L1DiffRange's order per column). partial is indexed
	// [block*width + j]; a block the rows do not reach keeps +0, as it would
	// be had it been summed.
	sweep := func(cur, dst []float64, rows []graph.NodeID) {
		spmmPush(g, cur, dst, width, rows)
		count := n
		if rows == nil {
			for i := range dst[:n*width] {
				dst[i] *= oneMinus
			}
		} else {
			count = len(rows)
			for _, u := range rows {
				for i := int(u) * width; i < (int(u)+1)*width; i++ {
					dst[i] *= oneMinus
				}
			}
		}
		for j := 0; j < width; j++ {
			dst[int(cols[j].q)*width+j] += p.Alpha
		}
		block := -1
		var prow []float64
		for i := 0; i < count; i++ {
			u := i
			if rows != nil {
				u = int(rows[i])
			}
			if b := u / graph.RowBlock; b != block {
				block, prow = b, partial[b*width:b*width+width]
				clear(prow)
			}
			base := u * width
			for j := range prow {
				prow[j] += math.Abs(cur[base+j] - dst[base+j])
			}
		}
	}

	// copyColumn copies live column j of the current iterate out of the slab
	// (x, width and fb are read at call time, so it follows the swaps, repacks
	// and hand-over below) — its ball rows only during the ball phase;
	// readProbed is the probe's view of it.
	copyColumn := func(out []float64, j int) {
		if fb != nil {
			for _, u := range fb.rows {
				out[u] = x[int(u)*width+j]
			}
			return
		}
		for i := 0; i < n; i++ {
			out[i] = x[i*width+j]
		}
	}
	probed := 0
	readProbed := func(out []float64) []graph.NodeID {
		copyColumn(out, probed)
		return fb.list()
	}
	keep := make([]int, 0, w)

	for t := 1; t <= p.MaxIters; t++ {
		if fb != nil && !growBall(g, fb, ballLimit) {
			fb = nil
		}
		sweep(x, next, fb.list())
		if fb != nil {
			ballIters += width
		}
		x, next = next, x // x now holds this iteration's output

		// Per-column residual, summed in ascending block order — the same
		// reduction order as the stepper's.
		for j := 0; j < width; j++ {
			var s float64
			for b := 0; b < nblocks; b++ {
				s += partial[b*width+j]
			}
			colRes[j] = s
		}

		// A column leaves the slab when it converges (retired with its
		// vector) or when the caller's probe says it has seen enough.
		keep = keep[:0]
		for j := 0; j < width; j++ {
			if colRes[j] < p.Eps {
				vec := make([]float64, n)
				copyColumn(vec, j)
				retire(cols[j].idx, Result{Vector: vec, Iterations: t, Residual: colRes[j]}, nil)
				continue
			}
			if probe != nil {
				probed = j
				if probe(cols[j].idx, t, colRes[j]*oneMinus/p.Alpha, readProbed) {
					continue
				}
			}
			keep = append(keep, j)
		}
		if len(keep) == width {
			continue
		}
		if len(keep) == 0 {
			return ballIters, nil
		}
		// Repack the survivors to the narrower stride, in place. next's
		// contents are dead (every dst row is rewritten from scratch each
		// iteration), so only x needs the data moved — but the ball phase
		// counts on both slabs, and partial, being +0 outside the ball, so
		// there they give up what they hold at the old stride.
		repackSlab(x, n, width, keep, fb.list())
		if fb != nil {
			for _, u := range fb.rows {
				clear(next[int(u)*width : (int(u)+1)*width])
			}
			clear(partial)
		}
		for jj, j := range keep {
			cols[jj] = cols[j]
			colRes[jj] = colRes[j]
		}
		width = len(keep)
		cols = cols[:width]
		x = x[:n*width]
		next = next[:n*width]
	}

	// Iteration cap hit: the survivors fail, each reporting the iteration it
	// could not run, as ToStepper does.
	for j := 0; j < width; j++ {
		vec := make([]float64, n)
		copyColumn(vec, j)
		retire(cols[j].idx,
			Result{Vector: vec, Iterations: p.MaxIters + 1, Residual: colRes[j]},
			errNotConverged(p, colRes[j]))
	}
	return ballIters, nil
}

// repackSlab compacts the kept columns of an n×w node-major slab to stride
// len(keep), in place. keep must be ascending; every destination index is
// ≤ its source index, so a single forward pass never clobbers unread data.
// A non-nil rows (ascending) says s is zero outside those rows: only they
// move, and what a moved row leaves behind at the old stride is cleared, so s
// is zero outside them at the new stride too.
func repackSlab(s []float64, n, w int, keep []int, rows []graph.NodeID) {
	w2 := len(keep)
	if rows != nil {
		n = len(rows)
	}
	for i := 0; i < n; i++ {
		u := i
		if rows != nil {
			u = int(rows[i])
		}
		src, dst := u*w, u*w2
		for jj, j := range keep {
			s[dst+jj] = s[src+j]
		}
		if rows != nil {
			clear(s[max(src, dst+w2) : src+w])
		}
	}
}
