package rwr

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// spmmWidths covers the batch shapes of the acceptance criteria.
var spmmWidths = []int{1, 2, 4, 16}

// weightedTestGraph builds a deterministic weighted graph: a WebGraph
// topology with pseudo-random positive weights.
func weightedTestGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	base, err := gen.WebGraph(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(base.N())
	rng := uint64(seed)*2862933555777941757 + 3037000493
	for u := graph.NodeID(0); int(u) < base.N(); u++ {
		for _, v := range base.OutNeighbors(u) {
			rng = rng*2862933555777941757 + 3037000493
			w := 0.25 + float64(rng>>40)/float64(1<<24)*4
			b.AddWeightedEdge(u, v, w)
		}
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// spmmTestViews returns the graph families × view types the batched path
// must hold bit-identity on: unweighted and weighted CSRs, and an Overlay
// with an applied edit batch (patched and unpatched nodes mixed).
func spmmTestViews(t *testing.T) map[string]graph.View {
	t.Helper()
	web, err := gen.WebGraph(700, 5)
	if err != nil {
		t.Fatal(err)
	}
	social, err := gen.SocialGraph(300, 23)
	if err != nil {
		t.Fatal(err)
	}
	weighted := weightedTestGraph(t, 400, 11)
	ov := graph.NewOverlay(social)
	ov, err = ov.Apply([]graph.EdgeEdit{
		{From: 0, To: 299},
		{From: 7, To: 3, Weight: 2.5},
		{From: 301, To: 5}, // grows the overlay beyond the base CSR
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]graph.View{
		"web-unweighted": web,
		"social":         social,
		"weighted":       weighted,
		"overlay":        ov,
	}
}

// TestProximityVectorBatchEarlyRetirement: columns retire in
// scalar-iteration order, each at exactly its scalar iteration count, while
// the batch keeps running — a fast column never waits for the slowest one.
func TestProximityVectorBatchEarlyRetirement(t *testing.T) {
	g, err := gen.WebGraph(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	origins := []graph.NodeID{0, 9, 250, 499, 123, 44, 318, 77}
	scalarIters := make([]int, len(origins))
	for j, u := range origins {
		res, err := ProximityVectorParallel(g, u, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		scalarIters[j] = res.Iterations
	}
	lastIter := 0
	retired := make([]bool, len(origins))
	_, err = ProximityVectorBatchFunc(g, origins, p, 4, nil, func(i int, res Result, err error) {
		if err != nil {
			t.Fatalf("col %d: %v", i, err)
		}
		if retired[i] {
			t.Fatalf("col %d retired twice", i)
		}
		retired[i] = true
		if res.Iterations != scalarIters[i] {
			t.Fatalf("col %d retired at iteration %d, scalar converged at %d", i, res.Iterations, scalarIters[i])
		}
		if res.Iterations < lastIter {
			t.Fatalf("col %d retired at iteration %d after a column retired at %d", i, res.Iterations, lastIter)
		}
		lastIter = res.Iterations
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range retired {
		if !ok {
			t.Fatalf("col %d never retired", i)
		}
	}
	if slices.Min(scalarIters) == slices.Max(scalarIters) {
		t.Fatal("every column converges at the same iteration; nothing retired early")
	}
}

// TestProximityVectorBatchDuplicateOrigins: the same restart node may occupy
// several columns; each retires independently with identical bits.
func TestProximityVectorBatchDuplicateOrigins(t *testing.T) {
	g, err := gen.SocialGraph(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	origins := []graph.NodeID{42, 42, 7, 42}
	got, err := ProximityVectorBatch(g, origins, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for u := range got[0].Vector {
		if got[0].Vector[u] != got[1].Vector[u] || got[0].Vector[u] != got[3].Vector[u] {
			t.Fatalf("duplicate columns differ at node %d", u)
		}
	}
}

// TestProximityVectorBatchNonConvergence: columns that hit the iteration cap
// fail with the scalar path's exact error and its non-convergence Result.
func TestProximityVectorBatchNonConvergence(t *testing.T) {
	g, err := gen.WebGraph(300, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.MaxIters = 3 // far below the ~140 iterations ε=1e-10 needs
	want, wantErr := ProximityVectorParallel(g, 5, p, 1)
	if wantErr == nil {
		t.Fatal("scalar run unexpectedly converged in 3 iterations")
	}
	results, err := ProximityVectorBatch(g, []graph.NodeID{5, 9}, p, 2)
	if err == nil {
		t.Fatal("batch run unexpectedly converged in 3 iterations")
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("batch error %q, scalar error %q", err, wantErr)
	}
	if results[0].Iterations != want.Iterations || results[0].Residual != want.Residual {
		t.Fatalf("failed column result (%d, %g) differs from scalar (%d, %g)",
			results[0].Iterations, results[0].Residual, want.Iterations, want.Residual)
	}
	for u := range results[0].Vector {
		if results[0].Vector[u] != want.Vector[u] {
			t.Fatalf("failed column vector differs at node %d", u)
		}
	}
}

// TestProximityVectorBatchValidation: parameter and range failures reject the
// whole batch before any retire call; an empty batch is a no-op.
func TestProximityVectorBatchValidation(t *testing.T) {
	g, err := gen.WebGraph(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	if _, err := ProximityVectorBatchFunc(g, []graph.NodeID{50}, p, 1, nil, func(int, Result, error) {
		t.Fatal("retire called on validation failure")
	}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range origin: got %v", err)
	}
	bad := p
	bad.Alpha = 1.5
	if _, err := ProximityVectorBatchFunc(g, []graph.NodeID{0}, bad, 1, nil, func(int, Result, error) {
		t.Fatal("retire called on validation failure")
	}); err == nil {
		t.Fatal("bad alpha accepted")
	}
	if _, err := ProximityVectorBatchFunc(g, nil, p, 1, nil, func(int, Result, error) {
		t.Fatal("retire called on empty batch")
	}); err != nil {
		t.Fatal(err)
	}
}
