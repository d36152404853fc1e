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
// pays nothing. Returning true drops the column from the slab: it gets no
// retire call and no vector, the probe having taken what it needed.
// Columns that do converge are untouched by probing — bit-identical to an
// unprobed run.
type ColumnProbe func(i, iter int, tail float64, read func(dst []float64)) bool

// spmmBatch is the slab driver behind ProximityVectorBatchFunc: the forward
// power method x ← (1−α)·A·x + α·e_origin with an L1 stopping rule, one column
// per origin — slab layout, batched matvec (spmmTransitionRange), restart add,
// blocked residual reduction, per-column retirement and repacking. probe may
// be nil.
func spmmBatch[G graph.View](g G, origins []graph.NodeID, p Params, workers int, probe ColumnProbe, retire func(i int, res Result, err error)) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := g.N()
	for _, q := range origins {
		if int(q) < 0 || int(q) >= n {
			return fmt.Errorf("rwr: node %d out of range [0,%d)", q, n)
		}
	}
	if len(origins) == 0 {
		return nil
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

	// copyColumn copies live column j of the current iterate out of the slab
	// (x and width are read at call time, so it follows the swaps and
	// repacks below); readProbed is the probe's view of it.
	copyColumn := func(out []float64, j int) {
		for i := 0; i < n; i++ {
			out[i] = x[i*width+j]
		}
	}
	probed := 0
	readProbed := func(out []float64) { copyColumn(out, probed) }
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
		if len(segs) > 1 {
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
			return nil
		}
		// Repack the survivors to the narrower stride, in place. next's
		// contents are dead (every dst row is rewritten from scratch each
		// iteration), so only x needs the data moved.
		repackSlab(x, n, width, keep)
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
	return nil
}

// repackSlab compacts the kept columns of an n×w node-major slab to stride
// len(keep), in place. keep must be ascending; every destination index is
// ≤ its source index, so a single forward pass never clobbers unread data.
func repackSlab(s []float64, n, w int, keep []int) {
	w2 := len(keep)
	for u := 0; u < n; u++ {
		src := u * w
		dstBase := u * w2
		for jj, j := range keep {
			s[dstBase+jj] = s[src+j]
		}
	}
}
