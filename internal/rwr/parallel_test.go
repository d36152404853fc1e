package rwr

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vecmath"
)

// workerSweep covers the interesting parallelism shapes: sequential, even
// splits, odd splits, more workers than residual blocks, and more workers
// than nodes.
var workerSweep = []int{1, 2, 3, 8, 33}

// TestProximityToParallelBitIdentical: the sharded PMPN returns the reference
// loop's vector, iteration count and residual at EVERY worker count — each
// row is accumulated in the same order, and the convergence check reduces
// over fixed blocks.
func TestProximityToParallelBitIdentical(t *testing.T) {
	g, err := gen.WebGraph(700, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	for _, q := range []graph.NodeID{0, 17, 350, 699} {
		want, wantErr := refProximityTo(g, q, p)
		for _, w := range workerSweep {
			got, err := ProximityToParallel(g, q, p, w)
			sameRun(t, fmt.Sprintf("q=%d workers=%d", q, w), got, err, want, wantErr)
		}
	}
}

// TestProximityVectorParallelWorkerIndependent: the forward solve split
// across workers (ProximityVectorBatch, one slab per share of the origins)
// returns ProximityVector's bits for every origin at every worker count.
func TestProximityVectorParallelWorkerIndependent(t *testing.T) {
	g, err := gen.SocialGraph(400, 23)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	origins := []graph.NodeID{0, 123, 399, 7, 250}
	for _, w := range workerSweep {
		got, err := ProximityVectorBatch(g, origins, p, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for j, u := range origins {
			want, err := ProximityVector(g, u, p)
			sameRun(t, fmt.Sprintf("u=%d workers=%d", u, w), got[j], nil, want, err)
		}
	}
}

// TestMulTransitionTRangePartition: any disjoint cover of [0,n) reproduces
// the full sweep exactly.
func TestMulTransitionTRangePartition(t *testing.T) {
	g, err := gen.WebGraph(300, 9)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.N())
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	want := make([]float64, g.N())
	MulTransitionTRange(g, x, want, 0, g.N())
	for _, parts := range []int{1, 2, 7, 300, 1000} {
		got := make([]float64, g.N())
		for _, seg := range vecmath.Split(g.N(), parts) {
			MulTransitionTRange(g, x, got, seg.Lo, seg.Hi)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: row %d differs: %g vs %g", parts, i, got[i], want[i])
			}
		}
	}
}

// TestParallelDegenerateGraphs exercises the shapes that break naive
// sharding: a single self-looped node, graphs with (self-loop-resolved)
// dangling nodes, graphs smaller than one residual block, worker counts far
// beyond the node count, and a column pool whose every column fails.
func TestParallelDegenerateGraphs(t *testing.T) {
	p := DefaultParams()

	t.Run("single-node", func(t *testing.T) {
		b := graph.NewBuilder(1)
		b.EnsureNode(0)
		g, _, err := b.Build(graph.DanglingSelfLoop)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			res, err := ProximityToParallel(g, 0, p, w)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Vector[0]-1) > 1e-9 {
				t.Errorf("workers=%d: self proximity %g, want 1", w, res.Vector[0])
			}
			fwd, err := ProximityVectorBatch(g, []graph.NodeID{0, 0}, p, w)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fwd[1].Vector[0]-1) > 1e-9 {
				t.Errorf("workers=%d: forward self proximity %g, want 1", w, fwd[1].Vector[0])
			}
		}
	})

	t.Run("dangling-nodes", func(t *testing.T) {
		// Nodes 3 and 4 are dangling; the self-loop policy pins their walks.
		b := graph.NewBuilder(5)
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		b.AddEdge(2, 0)
		b.AddEdge(0, 3)
		b.AddEdge(1, 4)
		g, _, err := b.Build(graph.DanglingSelfLoop)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []graph.NodeID{0, 3} {
			want, wantErr := refProximityTo(g, q, p)
			for _, w := range []int{2, 9} {
				got, err := ProximityToParallel(g, q, p, w)
				sameRun(t, fmt.Sprintf("q=%d workers=%d", q, w), got, err, want, wantErr)
			}
		}
	})

	t.Run("workers-exceed-nodes", func(t *testing.T) {
		g, err := gen.WebGraph(37, 3) // far below one residual block
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := refProximityTo(g, 5, p)
		got, err := ProximityToParallel(g, 5, p, 512)
		sameRun(t, "workers=512", got, err, want, wantErr)
	})

	t.Run("every-column-fails", func(t *testing.T) {
		// One iteration converges no column: four workers race to fail, and
		// the matrix must blame column 0 on every call, whoever failed first.
		g, err := gen.WebGraph(300, 1)
		if err != nil {
			t.Fatal(err)
		}
		capped := p
		capped.MaxIters = 1
		for run := range 50 {
			if _, err := ProximityMatrix(g, capped, 4); err == nil || !strings.HasPrefix(err.Error(), "rwr: column 0: ") {
				t.Fatalf("call %d: error %v, want column 0's", run, err)
			}
		}
	})
}

// TestBlockSegments pins the invariants the parallel driver relies on:
// segments are block-aligned, contiguous, non-empty, and cover [0, n).
func TestBlockSegments(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{1, 1}, {1, 8}, {255, 4}, {256, 4}, {257, 4}, {1024, 3}, {5000, 16}, {100000, 7},
	} {
		segs := blockSegments(tc.n, tc.workers)
		if len(segs) == 0 {
			t.Fatalf("n=%d workers=%d: no segments", tc.n, tc.workers)
		}
		prev := 0
		for i, s := range segs {
			if s.Lo != prev || s.Hi <= s.Lo {
				t.Fatalf("n=%d workers=%d: bad segment %d: %+v", tc.n, tc.workers, i, s)
			}
			if s.Lo%graph.RowBlock != 0 {
				t.Fatalf("n=%d workers=%d: segment %d not block-aligned: %+v", tc.n, tc.workers, i, s)
			}
			prev = s.Hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d workers=%d: segments cover [0,%d), want [0,%d)", tc.n, tc.workers, prev, tc.n)
		}
		if len(segs) > tc.workers {
			t.Fatalf("n=%d workers=%d: %d segments exceed worker count", tc.n, tc.workers, len(segs))
		}
	}
}
