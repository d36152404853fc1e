package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func applyTestGraph(t testing.TB, n int, seed int64, weighted bool) *Graph {
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

// mustApply applies edits to g, failing the test on an error or on a result
// that Validate refuses.
func mustApply(t *testing.T, g *Graph, edits []EdgeEdit) *Graph {
	t.Helper()
	g2, err := g.Apply(edits)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("Apply(%v): %v", edits, err)
	}
	return g2
}

// TestApplyBasics covers insert, remove, weight change, the self-loop
// policy on emptied nodes, and that the receiver is left as it was.
func TestApplyBasics(t *testing.T) {
	// 0→1, 0→2, 1→0, 2→2 (self-loop from the dangling fixup at build)
	edges := [][2]NodeID{{0, 1}, {0, 2}, {1, 0}}
	g, err := FromEdges(3, edges, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	g2 := mustApply(t, g, []EdgeEdit{{From: 2, To: 0}, {From: 0, To: 1, Remove: true}})
	if orig, _ := FromEdges(3, edges, DanglingSelfLoop); !reflect.DeepEqual(g, orig) {
		t.Fatal("Apply mutated its receiver")
	}
	if !g2.HasEdge(2, 0) || g2.HasEdge(0, 1) || !g2.HasEdge(0, 2) {
		t.Fatalf("edit batch not applied: %v", g2)
	}
	if g2.M() != g.M() {
		t.Fatalf("M = %d, want %d", g2.M(), g.M())
	}
	if got := g2.InNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("in-neighbors of 0 = %v, want [1 2]", got)
	}

	// Removing node 1's only out-edge triggers the self-loop policy.
	g3 := mustApply(t, g2, []EdgeEdit{{From: 1, To: 0, Remove: true}})
	if !g3.HasEdge(1, 1) || g3.OutDegree(1) != 1 {
		t.Fatalf("emptied node did not get a self-loop: out(1)=%v", g3.OutNeighbors(1))
	}

	// Weight change via remove+insert.
	g4 := mustApply(t, g3, []EdgeEdit{{From: 0, To: 2, Remove: true}, {From: 0, To: 2, Weight: 3.5}})
	if w := g4.EdgeWeight(0, 2); w != 3.5 {
		t.Fatalf("weight change: got %g, want 3.5", w)
	}
	if !g4.Weighted() {
		t.Fatal("graph did not become weighted")
	}
	if tw, inv := g4.TotalOutWeight(0), g4.InvTotalOutWeight(0); tw != 3.5 || inv != 1/3.5 {
		t.Fatalf("normalizers of 0 = %g, %g, want 3.5, %g", tw, inv, 1/3.5)
	}
	// Changing the weight back to 1 leaves no weight other than 1, and the
	// graph unweighted again, as a rebuild leaves it.
	g5 := mustApply(t, g4, []EdgeEdit{{From: 0, To: 2, Remove: true}, {From: 0, To: 2}})
	if g5.Weighted() || g5.OutWeightsOf(0) != nil {
		t.Fatal("all-1 weights kept after the last weighted edge went")
	}
}

// TestApplyErrors mirrors the rebuild path's validation.
func TestApplyErrors(t *testing.T) {
	edges := [][2]NodeID{{0, 1}, {1, 2}, {2, 0}}
	g, err := FromEdges(3, edges, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := FromEdges(3, edges, DanglingSelfLoop)
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
			if g2, err := g.Apply(tc.edits); err == nil || g2 != nil {
				t.Fatalf("Apply(%v) = %v, %v, want nil and an error", tc.edits, g2, err)
			}
			if !reflect.DeepEqual(g, orig) {
				t.Fatal("failed Apply mutated the graph")
			}
		})
	}
	// Within-batch insert+remove of the same edge cancels (no error).
	if _, err := g.Apply([]EdgeEdit{{From: 0, To: 2}, {From: 0, To: 2, Remove: true}}); err != nil {
		t.Fatalf("insert+remove pair should cancel, got %v", err)
	}
	// An insert naming NEW nodes that is cancelled by a later remove in
	// the same batch nets to a no-op and must NOT grow the graph (the
	// rebuild's builder never sees the cancelled pair).
	g6 := mustApply(t, g, []EdgeEdit{{From: 2, To: 7}, {From: 2, To: 7, Remove: true}})
	if !reflect.DeepEqual(g6, g) {
		t.Fatalf("cancelled growing insert changed the graph: n=%d m=%d, want n=%d m=%d", g6.N(), g6.M(), g.N(), g.M())
	}
	// A repeated insert of the same NEW edge is last-wins, matching the
	// rebuild path's batch semantics.
	g5 := mustApply(t, g, []EdgeEdit{{From: 0, To: 2, Weight: 2}, {From: 0, To: 2, Weight: 7}})
	if w := g5.EdgeWeight(0, 2); w != 7 {
		t.Fatalf("repeated insert: weight %g, want 7 (last wins)", w)
	}
}

// TestApplyNodeGrowth: edits naming nodes beyond N grow the graph; every
// new node without out-edges self-loops.
func TestApplyNodeGrowth(t *testing.T) {
	g, err := FromEdges(2, [][2]NodeID{{0, 1}, {1, 0}}, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	g2 := mustApply(t, g, []EdgeEdit{{From: 0, To: 4}})
	if g2.N() != 5 {
		t.Fatalf("N = %d, want 5", g2.N())
	}
	// Nodes 2, 3, 4 are new; 2 and 3 untouched → self-loops; 4 receives an
	// edge but has no out-edges → self-loop.
	for _, u := range []NodeID{2, 3, 4} {
		if !g2.HasEdge(u, u) || g2.OutDegree(u) != 1 {
			t.Fatalf("new node %d: out=%v, want self-loop", u, g2.OutNeighbors(u))
		}
	}
	if got := g2.InNeighbors(4); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("in(4) = %v, want [0 4]", got)
	}
	if got := g2.InDegree(2); got != 1 {
		t.Fatalf("in-degree(2) = %d, want 1 (its own loop)", got)
	}
	if g2.M() != g.M()+4 {
		t.Fatalf("M = %d, want %d", g2.M(), g.M()+4)
	}
	// A new node with out-edges of its own keeps them and gets no loop.
	g3 := mustApply(t, g2, []EdgeEdit{{From: 6, To: 0, Weight: 2}})
	if g3.N() != 7 || g3.OutDegree(6) != 1 || g3.EdgeWeight(6, 0) != 2 || !g3.HasEdge(5, 5) {
		t.Fatalf("grown node 6: out=%v, node 5: out=%v", g3.OutNeighbors(6), g3.OutNeighbors(5))
	}
}

// inNeighborsAscending checks the in-adjacency InNeighbors documents:
// every in-neighbor list strictly ascends by source, with the weight the
// source's own out-list carries for that edge — the transpose the backward
// ball (rwr/ball.go) walks to find every row PMPN can reach.
func inNeighborsAscending(g *Graph) error {
	for u := NodeID(0); int(u) < g.N(); u++ {
		in, ws := g.InNeighbors(u), g.InWeightsOf(u)
		for i, src := range in {
			if i > 0 && in[i-1] >= src {
				return fmt.Errorf("in-neighbors of %d not strictly ascending: %v", u, in)
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if out := g.EdgeWeight(src, u); out != w {
				return fmt.Errorf("edge %d→%d weighs %g in the in-list, %g in the out-list", src, u, w, out)
			}
		}
	}
	return nil
}

// TestInNeighborsAscendBySource holds the invariant for everything that
// produces a graph: Builder output (duplicate and weighted edges, every
// dangling policy) and each graph a chain of Apply calls derives
// (removals, weighted inserts, node growth).
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
		g := applyTestGraph(t, 60, 21, weighted)
		for batch := 0; batch < 8; batch++ {
			var edits []EdgeEdit
			seen := map[[2]NodeID]bool{}
			for len(edits) < 6 {
				u, v := NodeID(rng.Intn(g.N())), NodeID(rng.Intn(g.N()+2)) // v may grow the graph
				if seen[[2]NodeID{u, v}] {
					continue
				}
				seen[[2]NodeID{u, v}] = true
				switch {
				case int(v) < g.N() && g.HasEdge(u, v):
					edits = append(edits, EdgeEdit{From: u, To: v, Remove: true})
				case rng.Intn(2) == 0:
					edits = append(edits, EdgeEdit{From: u, To: v, Weight: 0.25 + rng.Float64()*4})
				default:
					edits = append(edits, EdgeEdit{From: u, To: v})
				}
			}
			g = mustApply(t, g, edits)
			if err := inNeighborsAscending(g); err != nil {
				t.Fatalf("weighted=%v, after batch %d: %v", weighted, batch, err)
			}
		}
	}
}
