package core

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rwr"
)

// TestNewEngineRefusesOtherGraph is the in-process reproducer of a graph
// served with another graph's index: two 2048-node web graphs (seeds 1 and
// 2) of one node count and an index of seed 1. NewEngine and NewView refuse
// seed 2, which the node-count check they had let through; they accept seed
// 1 built a second time, an equal graph at another address, and answer as
// brute force on it; and they refuse a graph that differs from the index's
// in one edge's weight alone.
func TestNewEngineRefusesOtherGraph(t *testing.T) {
	g1, err := gen.WebGraph(2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.WebGraph(2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g1.N() != g2.N() {
		t.Fatalf("the two graphs have %d and %d nodes", g1.N(), g2.N())
	}
	idx := buildIndex(t, g1, 10, 8)
	if _, err := NewEngine(g2, idx, false); err == nil {
		t.Error("NewEngine accepted seed 2 with seed 1's index")
	}
	if _, err := NewView(g2, idx); err == nil {
		t.Error("NewView accepted seed 2 with seed 1's index")
	}

	again, err := gen.WebGraph(2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(again, idx)
	if err != nil {
		t.Fatalf("NewView refused an equal graph: %v", err)
	}
	got, _, err := v.Query(700, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(g1, 700, 10, rwr.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("q=700 k=10 answers %v, brute force %v", got, want)
	}

	w := randomGraph(5, 40, true)
	widx := buildIndex(t, w, 4, 1)
	u := graph.NodeID(3)
	x := w.OutNeighbors(u)[0]
	reweighted, err := w.Apply([]graph.EdgeEdit{{From: u, To: x, Remove: true}, {From: u, To: x, Weight: w.EdgeWeight(u, x) * 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(reweighted, widx, true); err == nil {
		t.Error("NewEngine accepted a graph that differs in one weight")
	}
	if _, err := NewEngine(w, widx, true); err != nil {
		t.Errorf("NewEngine refused the index's own graph: %v", err)
	}
}
