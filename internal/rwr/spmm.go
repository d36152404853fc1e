package rwr

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// The slab driver of the forward SpMM tier (spmmfwd.go has the kernels and
// the entry points): B power-method columns live in one dense node-major slab
// (column j at x[u*w+j]) and every round runs ONE sweep of the transition
// matrix over all of them, amortizing the CSR's memory traffic B ways.
//
// Bit-identity contract: per column, every floating-point operation — the
// neighbor-order accumulation, the multiply by the precomputed inverse
// normalizer, the (1−α) scale, the restart add, and the block-order
// residual reduction at residualBlock granularity — is the same operation
// sequence as ProximityVectorParallel, so each column's vector, residual and
// iteration count are bit-identical to a scalar run at any worker count
// and any batch width. A column that converges retires from the slab
// immediately (the survivors repack to a narrower stride) without
// stalling the rest of the batch.
//
// A single-segment slab over an in-tree view (the push kernel's case, and the
// only one the engine's exact fallback runs) starts in a ball phase, the
// forward twin of ToStepper's (ball.go): after t sweeps the columns are
// supported on the union of the origins' forward balls of radius t, and while
// that union holds fewer than n/slabBallDivisor rows an iteration clears,
// pushes from, scales, restarts and block-reduces those rows only, and
// retiring, probing and repacking copy or move only them; then the dense loop
// continues from the same buffers and iteration count. A skipped row is +0 in
// both iterates and adds +0 to its residual block, so nothing a caller sees
// differs from a slab that sweeps densely from the start
// (TestForwardBallBitIdentical).

// batchColumn tracks one live column of the slab.
type batchColumn struct {
	idx int          // caller's position in the origins slice
	q   graph.NodeID // restart node
}

// ColumnProbe lets a slab's caller stop a column before it converges. The
// driver calls it on the coordinating goroutine after every iteration that
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
// by probing — bit-identical to an unprobed run.
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
// per origin — slab layout, batched matvec (spmmTransitionRange), restart add,
// blocked residual reduction, per-column retirement and repacking. probe may
// be nil. ballLimit is the row count that ends the ball phase (0: dense from
// the start); ballIters reports the column-iterations swept inside it.
func spmmBatch[G graph.View](g G, origins []graph.NodeID, p Params, workers, ballLimit int, probe ColumnProbe, retire func(i int, res Result, err error)) (ballIters int, err error) {
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
	workers = normWorkers(workers)

	w := len(origins)
	x := make([]float64, n*w)
	next := make([]float64, n*w)
	cols := make([]batchColumn, w)
	for j, q := range origins {
		cols[j] = batchColumn{idx: j, q: q}
		x[int(q)*w+j] = 1
	}
	nblocks := (n + residualBlock - 1) / residualBlock
	partial := make([]float64, nblocks*w)
	colRes := make([]float64, w)
	oneMinus := 1 - p.Alpha

	// Shared per-iteration state, published to the persistent workers by the
	// start-channel sends (the send/recv pairs establish the happens-before
	// edges; each worker writes only its own dst rows and partial blocks).
	var cur, dst []float64
	width := w
	segs := blockSegments(n, workers)

	// runSeg is one worker's share of one iteration: the batched matvec for
	// seg's rows, the (1−α) scale, the per-column restart add, and the
	// per-(block, column) L1 residual partials (ascending row order within
	// a block — vecmath.L1DiffRange's order per column). partial is indexed
	// [block*width + j].
	runSeg := func(seg vecmath.Range) {
		spmmTransitionRange(g, cur, dst, width, seg.Lo, seg.Hi)
		for i := seg.Lo * width; i < seg.Hi*width; i++ {
			dst[i] *= oneMinus
		}
		for j := 0; j < width; j++ {
			if q := int(cols[j].q); seg.Lo <= q && q < seg.Hi {
				dst[q*width+j] += p.Alpha
			}
		}
		for blo := seg.Lo; blo < seg.Hi; blo += residualBlock {
			bhi := blo + residualBlock
			if bhi > seg.Hi {
				bhi = seg.Hi
			}
			prow := partial[(blo/residualBlock)*width : (blo/residualBlock)*width+width]
			for j := range prow {
				prow[j] = 0
			}
			for i := blo; i < bhi; i++ {
				base := i * width
				for j := 0; j < width; j++ {
					prow[j] += math.Abs(cur[base+j] - dst[base+j])
				}
			}
		}
	}

	// fb is the union of the origins' forward balls while the slab is in its
	// ball phase (see the file comment): nil after the hand-over, and from the
	// start for a row-sharded sweep or a third-party view.
	var fb *ball
	switch any(g).(type) {
	case *graph.Graph, *graph.Overlay:
		if len(segs) == 1 {
			fb = newBall(n, true, origins...)
		}
	}

	// runBall is runSeg over the ball's rows. partial stays +0 at the blocks
	// the ball has not reached, as it would be had they been summed.
	runBall := func(rows []graph.NodeID) {
		spmmPush(g, cur, dst, width, rows)
		for _, u := range rows {
			for i := int(u) * width; i < (int(u)+1)*width; i++ {
				dst[i] *= oneMinus
			}
		}
		for j := 0; j < width; j++ {
			dst[int(cols[j].q)*width+j] += p.Alpha
		}
		block := -1
		var prow []float64
		for _, u := range rows {
			if b := int(u) / residualBlock; b != block {
				block, prow = b, partial[b*width:b*width+width]
				clear(prow)
			}
			base := int(u) * width
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

	var start []chan struct{}
	var done chan struct{}
	if len(segs) > 1 {
		start = make([]chan struct{}, len(segs))
		for i := range start {
			start[i] = make(chan struct{})
		}
		done = make(chan struct{}, len(segs))
		for i, seg := range segs {
			go func(i int, seg vecmath.Range) {
				for range start[i] {
					runSeg(seg)
					done <- struct{}{}
				}
			}(i, seg)
		}
		defer func() {
			for _, ch := range start {
				close(ch)
			}
		}()
	}

	for t := 1; t <= p.MaxIters; t++ {
		cur, dst = x, next
		if fb != nil && !growBall(g, fb, ballLimit) {
			fb = nil
		}
		if fb != nil {
			runBall(fb.rows)
			ballIters += width
		} else if len(segs) > 1 {
			for _, ch := range start {
				ch <- struct{}{}
			}
			for range segs {
				<-done
			}
		} else {
			runSeg(segs[0])
		}
		x, next = next, x // x now holds this iteration's output

		// Per-column residual, summed in ascending block order — the same
		// reduction order as the scalar stepper's.
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

	// Iteration cap hit: the survivors fail exactly like the scalar path
	// (Iterations counts the cap overrun the same way iterate does).
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
