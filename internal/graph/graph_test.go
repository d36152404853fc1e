package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// paperToyEdges is the 6-node example graph of Figure 1. Edges are inferred
// so that the stated proximity matrix is reproduced (verified in the rwr
// package tests); here we only need a small connected digraph.
func paperToyEdges() [][2]NodeID {
	return [][2]NodeID{
		{0, 1}, {1, 0}, {1, 2}, {2, 1}, {3, 0}, {3, 1}, {3, 4},
		{4, 0}, {4, 1}, {5, 1}, {5, 5}, {0, 3}, {2, 2}, {4, 4},
	}
}

func TestBuildBasic(t *testing.T) {
	g, err := FromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 0}}, DanglingSelfLoop)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 5 {
		t.Fatalf("M = %d, want 5", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Errorf("OutNeighbors(0) = %v, want [1 2]", got)
	}
	if got := g.InNeighbors(0); !reflect.DeepEqual(got, []NodeID{2, 3}) {
		t.Errorf("InNeighbors(0) = %v, want [2 3]", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 {
		t.Errorf("degree mismatch: out(0)=%d in(2)=%d", g.OutDegree(0), g.InDegree(2))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Errorf("HasEdge wrong: 0->1 %t, 1->0 %t", g.HasEdge(0, 1), g.HasEdge(1, 0))
	}
	if w := g.TotalOutWeight(0); w != 2 {
		t.Errorf("TotalOutWeight(0) = %g, want 2", w)
	}
}

func TestDanglingSelfLoop(t *testing.T) {
	g, err := FromEdges(3, [][2]NodeID{{0, 1}, {0, 2}}, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 2 were dangling; each must now self-loop.
	if !g.HasEdge(1, 1) || !g.HasEdge(2, 2) {
		t.Errorf("missing self-loops on dangling nodes")
	}
	if g.N() != 3 || g.M() != 4 {
		t.Errorf("n=%d m=%d, want 3/4", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDanglingSharedSink(t *testing.T) {
	g, err := FromEdges(3, [][2]NodeID{{0, 1}, {0, 2}}, DanglingSharedSink)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4 (sink added)", g.N())
	}
	sink := NodeID(3)
	if !g.HasEdge(1, sink) || !g.HasEdge(2, sink) || !g.HasEdge(sink, sink) {
		t.Errorf("sink wiring wrong")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDanglingSharedSinkNoDangling(t *testing.T) {
	g, err := FromEdges(2, [][2]NodeID{{0, 1}, {1, 0}}, DanglingSharedSink)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatalf("no dangling nodes but N grew to %d", g.N())
	}
}

func TestDanglingPrune(t *testing.T) {
	// 0->1->2, 2 dangling. Pruning 2 makes 1 dangling, pruning 1 makes 0
	// dangling: the whole chain disappears. 3<->4 survives.
	b := NewBuilder(5)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {3, 4}, {4, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g, remap, err := b.Build(DanglingPrune)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 2 {
		t.Fatalf("n=%d m=%d, want 2/2", g.N(), g.M())
	}
	want := []NodeID{-1, -1, -1, 0, 1}
	if !reflect.DeepEqual(remap, want) {
		t.Errorf("remap = %v, want %v", remap, want)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDanglingReject(t *testing.T) {
	if _, err := FromEdges(2, [][2]NodeID{{0, 1}}, DanglingReject); err == nil {
		t.Fatal("want error for dangling node under DanglingReject")
	}
	if _, err := FromEdges(2, [][2]NodeID{{0, 1}, {1, 0}}, DanglingReject); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDuplicateEdgesCollapse(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (duplicates collapsed)", g.M())
	}
	if g.OutDegree(0) != 1 {
		t.Errorf("OutDegree(0) = %d, want 1", g.OutDegree(0))
	}
}

func TestWeightedDuplicatesSum(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(0, 1, 3)
	b.AddWeightedEdge(1, 0, 1)
	g, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	if w := g.EdgeWeight(0, 1); w != 5 {
		t.Errorf("EdgeWeight(0,1) = %g, want 5", w)
	}
	if w := g.TotalOutWeight(0); w != 5 {
		t.Errorf("TotalOutWeight(0) = %g, want 5", w)
	}
}

func TestWeightedPromotionBackfillsOnes(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)              // recorded while unweighted
	b.AddWeightedEdge(1, 2, 2.5) // promotes builder to weighted
	b.AddEdge(2, 0)              // weight 1 again
	g, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if w := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("backfilled weight = %g, want 1", w)
	}
	if w := g.EdgeWeight(1, 2); w != 2.5 {
		t.Errorf("explicit weight = %g, want 2.5", w)
	}
}

func TestNonPositiveWeightRejected(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 0)
	if _, _, err := b.Build(DanglingSelfLoop); err == nil {
		t.Fatal("want error for zero weight")
	}
	b2 := NewBuilder(2)
	b2.AddWeightedEdge(0, 1, -1)
	if _, _, err := b2.Build(DanglingSelfLoop); err == nil {
		t.Fatal("want error for negative weight")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, _, err := NewBuilder(0).Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("n=%d m=%d, want 0/0", g.N(), g.M())
	}
}

func TestImplicitNodeGrowth(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(7, 3)
	b.AddEdge(3, 7)
	g, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 {
		t.Fatalf("N = %d, want 8", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestInOutMirrorConsistency(t *testing.T) {
	// Property: for every edge u->v found via out-lists, v's in-list must
	// contain u, with the same weight, on random graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		m := 1 + rng.Intn(4*n)
		for i := 0; i < m; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			b.AddWeightedEdge(u, v, 1+rng.Float64()*5)
		}
		g, _, err := b.Build(DanglingSelfLoop)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		for u := NodeID(0); int(u) < g.N(); u++ {
			for i, v := range g.OutNeighbors(u) {
				w := g.OutWeightsOf(u)[i]
				found := false
				for j, x := range g.InNeighbors(v) {
					if x == u && g.InWeightsOf(v)[j] == w {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDegreeOrderInvariant holds DegreeRuns' contract, which Validate
// asserts beside the in/out mirror, on every way a CSR is made: Builder.Build
// (n = 0, n = 1, and weighted and unweighted graphs whose last block is
// partial and whose degrees reach past 64) and Overlay.Compact. Each
// block's order is a permutation of its rows, ids
// ascend inside a degree, and runs split exactly where the degree changes;
// corrupting either breaks Validate.
func TestDegreeOrderInvariant(t *testing.T) {
	check := func(label string, g *Graph) {
		t.Helper()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	empty, _, err := NewBuilder(0).Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	check("n=0", empty)
	single, _, err := NewBuilder(1).Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	check("n=1", single)
	if rows, runs := single.DegreeRuns(0); !reflect.DeepEqual(rows, []NodeID{0}) || !reflect.DeepEqual(runs, []int32{0, 1}) {
		t.Fatalf("n=1: DegreeRuns(0) = %v, %v", rows, runs)
	}

	rng := rand.New(rand.NewSource(35))
	const n = 2*RowBlock + 37
	for _, weighted := range []bool{false, true} {
		b := NewBuilder(n)
		for u := NodeID(0); u < n; u++ {
			d := rng.Intn(9) // degree 0 takes the self-loop
			if u%41 == 0 {
				d = 72 + rng.Intn(6) // past the counting sort's buckets, with ties
			}
			for ; d > 0; d-- {
				if v := NodeID(rng.Intn(n)); weighted {
					b.AddWeightedEdge(u, v, 0.5+rng.Float64())
				} else {
					b.AddEdge(u, v)
				}
			}
		}
		g, _, err := b.Build(DanglingSelfLoop)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("weighted=%v", weighted)
		check(label+" Build", g)

		var edits []EdgeEdit
		for len(edits) < 40 {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n+3)) // v may grow the graph
			if g.HasEdge(u, v) {
				edits = append(edits, EdgeEdit{From: u, To: v, Remove: true})
			} else {
				edits = append(edits, EdgeEdit{From: u, To: v, Weight: 1 + float64(rng.Intn(2))})
			}
		}
		ov, err := NewOverlay(g).Apply(edits)
		if err != nil {
			t.Fatal(err)
		}
		compacted, err := ov.Compact()
		if err != nil {
			t.Fatal(err)
		}
		check(label+" Compact", compacted)

		// Validate must see a broken order: swap the first two rows of the
		// first run of two or more, then move a run boundary by one.
		rows, runs := g.DegreeRuns(0)
		r := 1
		for runs[r]-runs[r-1] < 2 {
			r++
		}
		s := runs[r-1]
		rows[s], rows[s+1] = rows[s+1], rows[s]
		if g.Validate() == nil {
			t.Fatalf("%s: Validate accepts rows descending inside a degree", label)
		}
		rows[s], rows[s+1] = rows[s+1], rows[s]
		runs[r]++
		if g.Validate() == nil {
			t.Fatalf("%s: Validate accepts a run boundary one row late", label)
		}
		runs[r]--
		check(label+" restored", g)
	}
}

func TestValidatePolicyProperty(t *testing.T) {
	// Property: every dangling policy except Reject yields a graph that
	// passes Validate (i.e. no dangling nodes remain, CSR consistent).
	policies := []DanglingPolicy{DanglingSelfLoop, DanglingSharedSink, DanglingPrune}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		edges := make([][2]NodeID, 0)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			edges = append(edges, [2]NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))})
		}
		for _, pol := range policies {
			b := NewBuilder(n)
			for _, e := range edges {
				b.AddEdge(e[0], e[1])
			}
			g, _, err := b.Build(pol)
			if err != nil {
				return false
			}
			if g.N() > 0 && g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := FromEdges(6, paperToyEdges(), DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	b, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g2.N(), g2.M(), g.N(), g.M())
	}
	for u := NodeID(0); int(u) < g.N(); u++ {
		if !reflect.DeepEqual(g.OutNeighbors(u), g2.OutNeighbors(u)) {
			t.Fatalf("out-neighbors of %d differ", u)
		}
	}
}

func TestWeightedEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(1, 2, 0.25)
	b.AddWeightedEdge(2, 0, 7)
	g, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	b2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := b2.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if w := g2.EdgeWeight(0, 1); w != 2.5 {
		t.Errorf("weight lost in round trip: %g", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0",          // too few fields
		"a 1",        // bad source
		"0 b",        // bad destination
		"0 1 weight", // bad weight
		"-1 2",       // negative id
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("ReadEdgeList(%q): want error", c)
		}
	}
}

func TestReadEdgeListSkipsComments(t *testing.T) {
	in := "# header\n% also a comment\n\n0 1\n1 0\n"
	b, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 2 {
		t.Fatalf("n = %d, m = %d, want 2 and 2", g.N(), g.M())
	}
}

func TestStats(t *testing.T) {
	g, err := FromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 0}, {2, 0}, {3, 0}, {3, 3}}, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Edges != 7 {
		t.Fatalf("stats shape wrong: %+v", s)
	}
	if s.MaxOutDegree != 3 {
		t.Errorf("MaxOutDegree = %d, want 3", s.MaxOutDegree)
	}
	if s.MaxInDegree != 3 {
		t.Errorf("MaxInDegree = %d, want 3", s.MaxInDegree)
	}
	if s.SelfLoops != 1 {
		t.Errorf("SelfLoops = %d, want 1", s.SelfLoops)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestTopByDegree(t *testing.T) {
	// Node 0 has the largest in-degree (3), node 0 also has the largest
	// out-degree (3); node 3 has out-degree 2.
	g, err := FromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 0}, {2, 0}, {3, 0}, {3, 1}}, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if got := TopByInDegree(g, 1); !reflect.DeepEqual(got, []NodeID{0}) {
		t.Errorf("TopByInDegree = %v, want [0]", got)
	}
	if got := TopByOutDegree(g, 2); !reflect.DeepEqual(got, []NodeID{0, 3}) {
		t.Errorf("TopByOutDegree = %v, want [0 3]", got)
	}
	if got := TopByInDegree(g, 100); len(got) != 4 {
		t.Errorf("TopByInDegree clamp: got %d ids, want 4", len(got))
	}
	if got := TopByInDegree(g, 0); got != nil {
		t.Errorf("TopByInDegree(0) = %v, want nil", got)
	}
}

func TestGini(t *testing.T) {
	if g := gini([]int{1, 1, 1, 1}); g > 1e-12 {
		t.Errorf("gini uniform = %g, want 0", g)
	}
	g := gini([]int{0, 0, 0, 10})
	if g < 0.7 {
		t.Errorf("gini concentrated = %g, want high", g)
	}
	if g := gini(nil); g != 0 {
		t.Errorf("gini empty = %g", g)
	}
}

func TestString(t *testing.T) {
	for _, p := range []DanglingPolicy{DanglingSelfLoop, DanglingSharedSink, DanglingPrune, DanglingReject, DanglingPolicy(99)} {
		if p.String() == "" {
			t.Errorf("empty String for %d", int(p))
		}
	}
}
