package lbindex

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

func toyGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(6, [][2]graph.NodeID{
		{0, 1}, {0, 3}, {1, 0}, {1, 2}, {2, 1}, {2, 2},
		{3, 0}, {3, 1}, {3, 4}, {4, 0}, {4, 1}, {4, 4}, {5, 1}, {5, 5},
	}, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		panic(err)
	}
	return g
}

func testOptions(k int) Options {
	o := DefaultOptions()
	o.K = k
	o.HubBudget = 1
	o.Workers = 2
	return o
}

func TestBuildToyIndex(t *testing.T) {
	g := toyGraph(t)
	opts := testOptions(3)
	// Match the Figure 2 setting: δ=0.8 terminates BCA very early.
	opts.BCA.Delta = 0.8
	idx, stats, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.N() != 6 || idx.K() != 3 {
		t.Fatalf("shape wrong: n=%d K=%d", idx.N(), idx.K())
	}
	if stats.HubCount != 2 {
		t.Errorf("hub count = %d, want 2 (B=1 union)", stats.HubCount)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Hubs carry exact values and zero residue.
	for u := graph.NodeID(0); int(u) < 6; u++ {
		if idx.IsHub(u) {
			if idx.ResidueNorm(u) != 0 {
				t.Errorf("hub %d has residue %g", u, idx.ResidueNorm(u))
			}
			if idx.StateSnapshot(u) != nil {
				t.Errorf("hub %d has a BCA state", u)
			}
		} else if idx.StateSnapshot(u) == nil {
			t.Errorf("non-hub %d missing state", u)
		}
		if !vecmath.IsSortedDescending(idx.PHatRow(u)) {
			t.Errorf("p̂ of %d not descending", u)
		}
	}
	if stats.Bytes <= 0 || stats.PhatBytes != 6*3*8 {
		t.Errorf("size accounting wrong: %+v", stats)
	}
	if stats.TotalIters == 0 {
		t.Error("no BCA iterations recorded")
	}
}

func TestLowerBoundsAreSound(t *testing.T) {
	// Proposition 2 at the index level: for every node u and k ≤ K,
	// p̂_u(k) ≤ pkmax_u computed exactly by the power method.
	f := func(seed int64) bool {
		size := int(seed % 7)
		if size < 0 {
			size = -size
		}
		g := randomGraph(seed, 40+size*10)
		opts := testOptions(5)
		opts.HubBudget = 2
		idx, _, err := Build(g, opts)
		if err != nil {
			return false
		}
		p := rwr.DefaultParams()
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			exact, err := rwr.ProximityVector(g, u, p)
			if err != nil {
				return false
			}
			for k := 1; k <= 5; k++ {
				if idx.KthLowerBound(u, k) > vecmath.KthLargest(exact.Vector, k)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestHubEntriesAreExactTopK(t *testing.T) {
	g := toyGraph(t)
	idx, _, err := Build(g, testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	p := rwr.DefaultParams()
	for _, h := range idx.HubMatrix().Hubs() {
		exact, err := rwr.ProximityVector(g, h, p)
		if err != nil {
			t.Fatal(err)
		}
		want := vecmath.TopKValues(exact.Vector, 3)
		got := idx.PHatRow(h)
		for i := range want {
			if diff := want[i] - got[i]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("hub %d p̂[%d] = %g, want %g", h, i, got[i], want[i])
			}
		}
	}
}

func TestCommitAndRefinements(t *testing.T) {
	g := toyGraph(t)
	idx, _, err := Build(g, testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	var u graph.NodeID = -1
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if !idx.IsHub(v) {
			u = v
			break
		}
	}
	if u < 0 {
		t.Skip("all nodes are hubs")
	}
	st := idx.StateSnapshot(u)
	phat := idx.PHatRow(u)
	cfg := idx.Options().BCA
	if st.BatchInk(cfg.Eta) == 0 && !st.Summarized() && st.RNorm != 0 {
		t.Fatalf("node %d: stored state with residue %g but no batch ink is not summarized", u, st.RNorm)
	}
	if !st.Summarized() {
		// A summary takes no step and is committed as it is.
		ws := bca.NewWorkspace(g.N())
		bca.Step(g, st, idx.HubMatrix(), cfg, ws)
		phat = bca.TopK(st, idx.HubMatrix(), ws, idx.K())
	}
	before := idx.KthLowerBound(u, 3)
	idx.Commit(u, st, phat)
	if idx.Refinements() != 1 {
		t.Errorf("Refinements = %d, want 1", idx.Refinements())
	}
	if idx.KthLowerBound(u, 3) < before {
		t.Error("commit loosened the bound")
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCommitWrongLengthPanics(t *testing.T) {
	g := toyGraph(t)
	idx, _, err := Build(g, testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	idx.Commit(0, nil, []float64{1})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := randomGraph(9, 60)
	opts := testOptions(4)
	opts.HubBudget = 3
	idx, _, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != idx.N() || loaded.K() != idx.K() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", loaded.N(), loaded.K(), idx.N(), idx.K())
	}
	wantOpts := idx.Options()
	wantOpts.Workers = 0 // runtime-only knob, deliberately not serialized
	if loaded.Options() != wantOpts {
		t.Errorf("options changed: %+v vs %+v", loaded.Options(), wantOpts)
	}
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		a, b := idx.PHatRow(u), loaded.PHatRow(u)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("p̂ of %d changed at %d: %g vs %g", u, i, a[i], b[i])
			}
		}
		if idx.ResidueNorm(u) != loaded.ResidueNorm(u) {
			// RNorm is recomputed from R on load; equality must still
			// hold bit-for-bit since R round-trips exactly.
			if diff := idx.ResidueNorm(u) - loaded.ResidueNorm(u); diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("residue of %d changed: %g vs %g", u, idx.ResidueNorm(u), loaded.ResidueNorm(u))
			}
		}
		sa, sb := idx.StateSnapshot(u), loaded.StateSnapshot(u)
		if (sa == nil) != (sb == nil) {
			t.Fatalf("state presence of %d changed", u)
		}
		if sa != nil {
			if sa.T != sb.T || sa.R.NNZ() != sb.R.NNZ() || sa.W.NNZ() != sb.W.NNZ() || sa.S.NNZ() != sb.S.NNZ() {
				t.Fatalf("state of %d changed", u)
			}
		}
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Error("want magic error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("want EOF error")
	}
	// Truncated valid prefix.
	g := toyGraph(t)
	idx, _, err := Build(g, testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("want truncation error")
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []func(*Options){
		func(o *Options) { o.K = 0 },
		func(o *Options) { o.HubBudget = -1 },
		func(o *Options) { o.Omega = -1 },
		func(o *Options) { o.BCA.Alpha = 0 },
		func(o *Options) { o.RWR.Eps = 0 },
		func(o *Options) { o.RWR.Alpha = 0.5 }, // mismatch with BCA alpha
	}
	for i, mutate := range cases {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildEmptyGraphFails(t *testing.T) {
	g, _, err := graph.NewBuilder(0).Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Build(g, testOptions(3)); err == nil {
		t.Error("want empty-graph error")
	}
}

// TestHubSchemes: hubs are selected iff the budget B is positive (B = 0 is
// the hub-free index), and either index keeps its invariants.
func TestHubSchemes(t *testing.T) {
	g := randomGraph(4, 50)
	for _, budget := range []int{2, 0} {
		opts := testOptions(3)
		opts.HubBudget = budget
		// Hub-free runs need a few more iterations to drain the residue.
		opts.BCA.Delta = 0.3
		idx, stats, err := Build(g, opts)
		if err != nil {
			t.Fatalf("B=%d: %v", budget, err)
		}
		if (stats.HubCount > 0) != (budget > 0) {
			t.Errorf("B=%d selected %d hubs", budget, stats.HubCount)
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Errorf("B=%d: %v", budget, err)
		}
	}
}

func TestStatsBytesOrdering(t *testing.T) {
	// Rounded actual size must not exceed the unrounded estimate, and the
	// P̂-only size is a lower bound for the total.
	g := randomGraph(13, 200)
	opts := testOptions(10)
	opts.HubBudget = 5
	// ω above the typical ≈1/n proximity so that rounding drops most hub
	// entries — the regime where sparse storage beats dense (the paper's
	// large-graph setting).
	opts.Omega = 1e-2
	_, stats, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes > stats.UnroundedBytes {
		t.Errorf("actual %d > unrounded %d", stats.Bytes, stats.UnroundedBytes)
	}
	if stats.PhatBytes > stats.Bytes {
		t.Errorf("P̂ alone %d > total %d", stats.PhatBytes, stats.Bytes)
	}
}
