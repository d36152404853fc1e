package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// viewEquivalent verifies two views expose identical adjacency semantics:
// same node/edge counts, per-node neighbor lists, weights, normalizers and
// membership answers. Weight representation may differ (nil weight slices
// mean all-1), so comparison is per-edge.
func viewEquivalent(a, b View) error {
	if a.N() != b.N() {
		return fmt.Errorf("N: %d vs %d", a.N(), b.N())
	}
	if a.M() != b.M() {
		return fmt.Errorf("M: %d vs %d", a.M(), b.M())
	}
	for u := NodeID(0); int(u) < a.N(); u++ {
		ao, bo := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(ao) != len(bo) {
			return fmt.Errorf("node %d: out-degree %d vs %d", u, len(ao), len(bo))
		}
		aw, bw := a.OutWeightsOf(u), b.OutWeightsOf(u)
		for i := range ao {
			if ao[i] != bo[i] {
				return fmt.Errorf("node %d: out-neighbor[%d] %d vs %d", u, i, ao[i], bo[i])
			}
			wa, wb := 1.0, 1.0
			if aw != nil {
				wa = aw[i]
			}
			if bw != nil {
				wb = bw[i]
			}
			if wa != wb {
				return fmt.Errorf("edge %d→%d: weight %g vs %g", u, ao[i], wa, wb)
			}
		}
		if a.TotalOutWeight(u) != b.TotalOutWeight(u) {
			return fmt.Errorf("node %d: total out-weight %g vs %g", u, a.TotalOutWeight(u), b.TotalOutWeight(u))
		}
		ai, bi := a.InNeighbors(u), b.InNeighbors(u)
		if len(ai) != len(bi) {
			return fmt.Errorf("node %d: in-degree %d vs %d", u, len(ai), len(bi))
		}
		aiw, biw := a.InWeightsOf(u), b.InWeightsOf(u)
		for i := range ai {
			if ai[i] != bi[i] {
				return fmt.Errorf("node %d: in-neighbor[%d] %d vs %d", u, i, ai[i], bi[i])
			}
			wa, wb := 1.0, 1.0
			if aiw != nil {
				wa = aiw[i]
			}
			if biw != nil {
				wb = biw[i]
			}
			if wa != wb {
				return fmt.Errorf("in-edge %d→%d: weight %g vs %g", ai[i], u, wa, wb)
			}
		}
	}
	return nil
}

func overlayTestGraph(t *testing.T, n int, seed int64, weighted bool) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if weighted {
			b.AddWeightedEdge(u, v, 1+rng.Float64()*4)
		} else {
			b.AddEdge(u, v)
		}
	}
	g, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOverlayEmptyEqualsBase: a fresh overlay is view-equivalent to its
// base and carries no delta.
func TestOverlayEmptyEqualsBase(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := overlayTestGraph(t, 40, 7, weighted)
		o := NewOverlay(g)
		if err := viewEquivalent(g, o); err != nil {
			t.Fatalf("weighted=%v: %v", weighted, err)
		}
		if o.PatchedNodes() != 0 || o.DeltaEdges() != 0 || o.Generation() != 0 {
			t.Fatalf("fresh overlay reports delta: %d nodes, %d edges", o.PatchedNodes(), o.DeltaEdges())
		}
	}
}

// TestOverlayApplyBasics covers insert, remove, weight change, self-loop
// policy on emptied nodes, and COW isolation of the receiver.
func TestOverlayApplyBasics(t *testing.T) {
	// 0→1, 0→2, 1→0, 2→2(self-loop from dangling fixup at build)
	g, err := FromEdges(3, [][2]NodeID{{0, 1}, {0, 2}, {1, 0}}, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOverlay(g)

	o2, err := o.Apply([]EdgeEdit{{From: 2, To: 0}, {From: 0, To: 1, Remove: true}})
	if err != nil {
		t.Fatal(err)
	}
	if o.M() != g.M() || o.HasEdge(2, 0) || !o.HasEdge(0, 1) {
		t.Fatal("Apply mutated its receiver")
	}
	if !o2.HasEdge(2, 0) || o2.HasEdge(0, 1) || !o2.HasEdge(0, 2) {
		t.Fatalf("edit batch not applied: %v", o2)
	}
	if o2.M() != g.M() {
		t.Fatalf("M = %d, want %d", o2.M(), g.M())
	}
	if got := o2.InNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("in-neighbors of 0 = %v, want [1 2]", got)
	}

	// Removing node 1's only out-edge triggers the self-loop policy.
	o3, err := o2.Apply([]EdgeEdit{{From: 1, To: 0, Remove: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !o3.HasEdge(1, 1) || o3.OutDegree(1) != 1 {
		t.Fatalf("emptied node did not get a self-loop: out(1)=%v", o3.OutNeighbors(1))
	}

	// Weight change via remove+insert.
	o4, err := o3.Apply([]EdgeEdit{{From: 0, To: 2, Remove: true}, {From: 0, To: 2, Weight: 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	if w := o4.EdgeWeight(0, 2); w != 3.5 {
		t.Fatalf("weight change: got %g, want 3.5", w)
	}
	if !o4.Weighted() {
		t.Fatal("overlay did not become weighted")
	}
	if tw := o4.TotalOutWeight(0); tw != 3.5 {
		t.Fatalf("TotalOutWeight(0) = %g, want 3.5", tw)
	}
}

// TestOverlayApplyErrors mirrors the rebuild path's validation.
func TestOverlayApplyErrors(t *testing.T) {
	g, err := FromEdges(3, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}}, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOverlay(g)
	cases := []struct {
		name  string
		edits []EdgeEdit
	}{
		{"remove missing", []EdgeEdit{{From: 0, To: 2, Remove: true}}},
		{"remove out-of-range source", []EdgeEdit{{From: 9, To: 0, Remove: true}}},
		{"double remove", []EdgeEdit{{From: 0, To: 1, Remove: true}, {From: 0, To: 1, Remove: true}}},
		{"insert existing", []EdgeEdit{{From: 0, To: 1}}},
		{"negative weight", []EdgeEdit{{From: 0, To: 2, Weight: -2}}},
		{"negative node", []EdgeEdit{{From: -1, To: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := o.Apply(tc.edits); err == nil {
				t.Fatalf("Apply(%v) succeeded, want error", tc.edits)
			}
			if err := viewEquivalent(g, o); err != nil {
				t.Fatalf("failed Apply mutated the overlay: %v", err)
			}
		})
	}
	// Within-batch insert+remove of the same edge cancels (no error).
	if _, err := o.Apply([]EdgeEdit{{From: 0, To: 2}, {From: 0, To: 2, Remove: true}}); err != nil {
		t.Fatalf("insert+remove pair should cancel, got %v", err)
	}
	// An insert naming NEW nodes that is cancelled by a later remove in
	// the same batch nets to a no-op and must NOT grow the graph (the
	// rebuild's builder never sees the cancelled pair).
	o6, err := o.Apply([]EdgeEdit{{From: 2, To: 7}, {From: 2, To: 7, Remove: true}})
	if err != nil {
		t.Fatalf("cancelled growing insert: %v", err)
	}
	if o6.N() != o.N() || o6.M() != o.M() {
		t.Fatalf("cancelled growing insert changed the graph: n=%d m=%d, want n=%d m=%d", o6.N(), o6.M(), o.N(), o.M())
	}
	// A repeated insert of the same NEW edge is last-wins, matching the
	// rebuild path's batch semantics.
	o5, err := o.Apply([]EdgeEdit{{From: 0, To: 2, Weight: 2}, {From: 0, To: 2, Weight: 7}})
	if err != nil {
		t.Fatalf("repeated insert should overwrite, got %v", err)
	}
	if w := o5.EdgeWeight(0, 2); w != 7 {
		t.Fatalf("repeated insert: weight %g, want 7 (last wins)", w)
	}
}

// TestOverlayNodeGrowth: edits naming nodes beyond N grow the overlay;
// every new node without out-edges self-loops.
func TestOverlayNodeGrowth(t *testing.T) {
	g, err := FromEdges(2, [][2]NodeID{{0, 1}, {1, 0}}, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOverlay(g)
	o2, err := o.Apply([]EdgeEdit{{From: 0, To: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if o2.N() != 5 {
		t.Fatalf("N = %d, want 5", o2.N())
	}
	// Nodes 2, 3, 4 are new; 2 and 3 untouched → self-loops; 4 receives an
	// edge but has no out-edges → self-loop.
	for _, u := range []NodeID{2, 3, 4} {
		if !o2.HasEdge(u, u) || o2.OutDegree(u) != 1 {
			t.Fatalf("new node %d: out=%v, want self-loop", u, o2.OutNeighbors(u))
		}
	}
	if got := o2.InNeighbors(4); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("in(4) = %v, want [0 4]", got)
	}
	if got := o2.InDegree(2); got != 1 {
		t.Fatalf("in-degree(2) = %d, want 1 (its own loop)", got)
	}
	if o2.M() != g.M()+4 {
		t.Fatalf("M = %d, want %d", o2.M(), g.M()+4)
	}
}

// TestOverlayCompactRoundTrip: compacting an edited overlay yields a CSR
// equivalent to the overlay, and a fresh overlay over it matches too.
func TestOverlayCompactRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := overlayTestGraph(t, 60, 11, weighted)
		o := NewOverlay(g)
		rng := rand.New(rand.NewSource(99))
		for batch := 0; batch < 5; batch++ {
			var edits []EdgeEdit
			seen := map[[2]NodeID]bool{}
			for len(edits) < 4 {
				u := NodeID(rng.Intn(o.N()))
				if rng.Intn(2) == 0 && o.OutDegree(u) > 1 {
					nbrs := o.OutNeighbors(u)
					v := nbrs[rng.Intn(len(nbrs))]
					if seen[[2]NodeID{u, v}] {
						continue
					}
					seen[[2]NodeID{u, v}] = true
					edits = append(edits, EdgeEdit{From: u, To: v, Remove: true})
				} else {
					v := NodeID(rng.Intn(o.N()))
					if u == v || o.HasEdge(u, v) || seen[[2]NodeID{u, v}] {
						continue
					}
					seen[[2]NodeID{u, v}] = true
					edits = append(edits, EdgeEdit{From: u, To: v})
				}
			}
			next, err := o.Apply(edits)
			if err != nil {
				t.Fatal(err)
			}
			o = next
		}
		compacted, err := o.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if err := compacted.Validate(); err != nil {
			t.Fatalf("weighted=%v: compacted graph invalid: %v", weighted, err)
		}
		if err := viewEquivalent(o, compacted); err != nil {
			t.Fatalf("weighted=%v: compacted ≠ overlay: %v", weighted, err)
		}
		if err := viewEquivalent(o, NewOverlay(compacted)); err != nil {
			t.Fatalf("weighted=%v: fresh overlay over compacted ≠ overlay: %v", weighted, err)
		}
	}
}

// inNeighborsAscending checks the in-adjacency View documents: every
// in-neighbor list strictly ascends by source, with the weight the source's
// own out-list carries for that edge — the transpose the backward ball
// (rwr/ball.go) walks to find every row PMPN can reach.
func inNeighborsAscending(v View) error {
	for u := NodeID(0); int(u) < v.N(); u++ {
		in, ws := v.InNeighbors(u), v.InWeightsOf(u)
		for i, src := range in {
			if i > 0 && in[i-1] >= src {
				return fmt.Errorf("in-neighbors of %d not strictly ascending: %v", u, in)
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if out := v.EdgeWeight(src, u); out != w {
				return fmt.Errorf("edge %d→%d weighs %g in the in-list, %g in the out-list", src, u, w, out)
			}
		}
	}
	return nil
}

// TestInNeighborsAscendBySource holds the invariant for everything that
// produces a view: Builder output (duplicate and weighted edges, every
// dangling policy), each overlay a chain of Apply calls derives (removals,
// weighted inserts, node growth), and the CSR Compact folds it into.
func TestInNeighborsAscendBySource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, policy := range []DanglingPolicy{DanglingSelfLoop, DanglingSharedSink, DanglingPrune} {
		b := NewBuilder(80)
		for i := 0; i < 400; i++ { // 400 draws over ≤ 3200 pairs of the first 40 sources: duplicates
			u, v := NodeID(rng.Intn(40)), NodeID(rng.Intn(80))
			if i%3 == 0 {
				b.AddWeightedEdge(u, v, 0.5+rng.Float64())
			} else {
				b.AddEdge(u, v)
			}
		}
		g, _, err := b.Build(policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := inNeighborsAscending(g); err != nil {
			t.Fatalf("builder, policy %v: %v", policy, err)
		}
	}
	for _, weighted := range []bool{false, true} {
		o := NewOverlay(overlayTestGraph(t, 60, 21, weighted))
		for batch := 0; batch < 8; batch++ {
			var edits []EdgeEdit
			seen := map[[2]NodeID]bool{}
			for len(edits) < 6 {
				u, v := NodeID(rng.Intn(o.N())), NodeID(rng.Intn(o.N()+2)) // v may grow the graph
				if seen[[2]NodeID{u, v}] {
					continue
				}
				seen[[2]NodeID{u, v}] = true
				switch {
				case int(v) < o.N() && o.HasEdge(u, v):
					edits = append(edits, EdgeEdit{From: u, To: v, Remove: true})
				case rng.Intn(2) == 0:
					edits = append(edits, EdgeEdit{From: u, To: v, Weight: 0.25 + rng.Float64()*4})
				default:
					edits = append(edits, EdgeEdit{From: u, To: v})
				}
			}
			next, err := o.Apply(edits)
			if err != nil {
				t.Fatal(err)
			}
			o = next
			if err := inNeighborsAscending(o); err != nil {
				t.Fatalf("weighted=%v, after batch %d: %v", weighted, batch, err)
			}
		}
		compacted, err := o.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if err := inNeighborsAscending(compacted); err != nil {
			t.Fatalf("weighted=%v, compacted: %v", weighted, err)
		}
	}
}
