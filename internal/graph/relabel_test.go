package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func relabelTestGraph(t *testing.T, seed int64, n, m int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddWeightedEdge(u, v, 1+rng.Float64())
	}
	g, _, err := b.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPermutationsAreBijections: the cache-aware ordering produces a valid
// permutation on every graph shape tried.
func TestPermutationsAreBijections(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := relabelTestGraph(t, seed, 50+int(seed)*17, 120)
		if err := DegreeOrderPermutation(g).Validate(g.N()); err != nil {
			t.Errorf("seed %d degree: %v", seed, err)
		}
	}
}

// TestApplyPermutationPreservesTopology: the relabeled twin has exactly the
// original's edges and weights under the relabeling map.
func TestApplyPermutationPreservesTopology(t *testing.T) {
	g := relabelTestGraph(t, 7, 40, 100)
	perm := DegreeOrderPermutation(g)
	pg, err := ApplyPermutation(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if pg.N() != g.N() {
		t.Fatalf("node count changed: %d → %d", g.N(), pg.N())
	}
	edgesOf := func(gr *Graph, u NodeID) map[NodeID]float64 {
		out := make(map[NodeID]float64)
		ws := gr.OutWeightsOf(u)
		for i, v := range gr.OutNeighbors(u) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			out[v] = w
		}
		return out
	}
	for u := NodeID(0); int(u) < g.N(); u++ {
		orig := edgesOf(g, u)
		mapped := make(map[NodeID]float64, len(orig))
		for v, w := range orig {
			mapped[perm[v]] = w
		}
		if got := edgesOf(pg, perm[u]); !reflect.DeepEqual(got, mapped) {
			t.Fatalf("node %d: edges %v, want %v", u, got, mapped)
		}
	}
}

// TestPermutationExtend: padding with identity labels keeps the bijection and
// leaves the stored prefix untouched; shrinking is rejected.
func TestPermutationExtend(t *testing.T) {
	p := Permutation{2, 0, 1}
	full, err := p.Extend(5)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Permutation{2, 0, 1, 3, 4}); !reflect.DeepEqual(full, want) {
		t.Fatalf("Extend(5) = %v, want %v", full, want)
	}
	if err := full.Validate(5); err != nil {
		t.Fatal(err)
	}
	same, err := p.Extend(3)
	if err != nil || !reflect.DeepEqual(same, p) {
		t.Fatalf("Extend(len) = %v, %v", same, err)
	}
	if _, err := p.Extend(2); err == nil {
		t.Fatal("Extend accepted a target smaller than the permutation")
	}
}
