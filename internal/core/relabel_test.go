package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/partition"
)

// relabeledPair builds the permuted twin of (g, idx): the graph relabeled by
// perm, indexed under the same options, with the relabeling installed so the
// index translates at the API boundary.
func relabeledPair(t *testing.T, g *graph.Graph, perm graph.Permutation, k, hubBudget int) (*graph.Graph, *lbindex.Index) {
	t.Helper()
	pg, err := graph.ApplyPermutation(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	pidx := buildIndex(t, pg, k, hubBudget)
	if err := pidx.SetRelabeling(perm); err != nil {
		t.Fatal(err)
	}
	return pg, pidx
}

func relabelFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	web, err := gen.WebGraph(240, 13)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"web":      web,
		"random":   randomGraph(71, 160, false),
		"weighted": randomGraph(72, 150, true),
	}
}

func relabelings(g *graph.Graph) map[string]graph.Permutation {
	return map[string]graph.Permutation{
		"degree": graph.DegreeOrderPermutation(g),
	}
}

// TestRelabeledViewMatchesIdentity: a view over a degree-ordered
// relabeled (graph, index) pair answers every query — scalar and batched —
// with exactly the node set the identity-labeled pair produces, across graph
// families and k. External callers cannot tell the layouts apart.
func TestRelabeledViewMatchesIdentity(t *testing.T) {
	for fam, g := range relabelFamilies(t) {
		idx := buildIndex(t, g, 8, 3)
		v, err := NewView(g, idx)
		if err != nil {
			t.Fatal(err)
		}
		for pname, perm := range relabelings(g) {
			if perm.IsIdentity() {
				t.Fatalf("%s/%s: test permutation degenerated to identity", fam, pname)
			}
			pg, pidx := relabeledPair(t, g, perm, 8, 3)
			pv, err := NewView(pg, pidx)
			if err != nil {
				t.Fatal(err)
			}
			var qs []graph.NodeID
			var ks []int
			for q := graph.NodeID(0); int(q) < g.N(); q += 17 {
				for _, k := range []int{1, 4, 8} {
					want, _, err := v.Query(q, k, 2)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := pv.Query(q, k, 2)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s q=%d k=%d: relabeled %v, identity %v", fam, pname, q, k, got, want)
					}
					qs = append(qs, q)
					ks = append(ks, k)
				}
			}
			// A second pass over the same list at another worker count
			// (formerly the batched path) agrees too.
			for _, q := range qs {
				got, _, err := pv.Query(q, 4, 3)
				if err != nil {
					t.Fatalf("%s/%s q=%d: %v", fam, pname, q, err)
				}
				want, _, err := v.Query(q, 4, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s q=%d workers=3: relabeled %v, identity %v", fam, pname, q, got, want)
				}
			}
		}
	}
}

// TestRelabeledExplainMatchesIdentity: explanations translate node ids back
// to the external space — same node sequence, same membership, proximities
// equal up to labeling-order rounding — so debugging output is comparable
// across layouts. Outcome labels may differ (hub tie-breaks are id-order
// dependent), membership may not.
func TestRelabeledExplainMatchesIdentity(t *testing.T) {
	g := relabelFamilies(t)["web"]
	idx := buildIndex(t, g, 6, 3)
	v, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	for pname, perm := range relabelings(g) {
		pg, pidx := relabeledPair(t, g, perm, 6, 3)
		pv, err := NewView(pg, pidx)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []graph.NodeID{0, 7, 101} {
			ex, err := v.Explain(q, 6, true, 2)
			if err != nil {
				t.Fatal(err)
			}
			pex, err := pv.Explain(q, 6, true, 2)
			if err != nil {
				t.Fatal(err)
			}
			if pex.Query != q || pex.Stats.Query != q {
				t.Fatalf("%s q=%d: explanation echoes internal query id %d", pname, q, pex.Query)
			}
			if len(pex.Decisions) != len(ex.Decisions) {
				t.Fatalf("%s q=%d: %d decisions, identity has %d", pname, q, len(pex.Decisions), len(ex.Decisions))
			}
			for i, d := range pex.Decisions {
				ref := ex.Decisions[i]
				if d.Node != ref.Node {
					t.Fatalf("%s q=%d decision %d: node %d, identity %d", pname, q, i, d.Node, ref.Node)
				}
				if d.InAnswer != ref.InAnswer {
					t.Errorf("%s q=%d node %d: InAnswer=%v, identity %v", pname, q, d.Node, d.InAnswer, ref.InAnswer)
				}
				if diff := math.Abs(d.Proximity - ref.Proximity); diff > 1e-9 {
					t.Errorf("%s q=%d node %d: proximity %g vs %g", pname, q, d.Node, d.Proximity, ref.Proximity)
				}
			}
		}
	}
}

// TestRelabeledShardUnionMatchesIdentity: shard slices of a relabeled index
// partition the node set exactly (their translated owned sets are a disjoint
// cover of the external space), and the scatter-gather answer — per-shard
// finishes unioned across shards, translated back — equals the identity
// pair's full answer for every strategy × P × k. This is the property the
// distributed coordinator depends on.
func TestRelabeledShardUnionMatchesIdentity(t *testing.T) {
	g := relabelFamilies(t)["web"]
	idx := buildIndex(t, g, 6, 3)
	v, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	perm := relabelings(g)["degree"]
	pg, pidx := relabeledPair(t, g, perm, 6, 3)
	for _, strategy := range []partition.Strategy{partition.Hash, partition.Range, partition.Balanced} {
		for _, P := range []int{2, 3} {
			pm, err := partition.New(strategy, pg, pg.N(), P, 42)
			if err != nil {
				t.Fatal(err)
			}
			slices := make([]*lbindex.Index, P)
			covered := make([]bool, g.N())
			for s := 0; s < P; s++ {
				slice, err := pidx.ShardSlice(pm, s)
				if err != nil {
					t.Fatal(err)
				}
				slices[s] = slice
				for _, u := range slice.OwnedNodes() {
					ext := slice.ToExternal(u)
					if covered[ext] {
						t.Fatalf("%v P=%d: external node %d owned by two shards", strategy, P, ext)
					}
					covered[ext] = true
				}
			}
			for u, ok := range covered {
				if !ok {
					t.Fatalf("%v P=%d: external node %d owned by no shard", strategy, P, u)
				}
			}
			for _, q := range []graph.NodeID{3, 50, 211} {
				for _, k := range []int{1, 6} {
					want, _, err := v.Query(q, k, 2)
					if err != nil {
						t.Fatal(err)
					}
					// One PMPN on the relabeled graph, screened and finished per
					// slice — the coordinator's shape.
					qi := pidx.ToInternal(q)
					engs := make([]*Engine, P)
					screens := make([]*Screen, P)
					for s := 0; s < P; s++ {
						if engs[s], err = NewEngine(pg, slices[s], false); err != nil {
							t.Fatal(err)
						}
						screens[s] = &Screen{idx: slices[s], k: k, tol: defaultTieTol}
					}
					r, err := NewRun(pg, qi, pidx.Options().RWR, 2, nil, screens...)
					if err == nil {
						err = r.Rounds(0, 0)
					}
					if err != nil {
						t.Fatal(err)
					}
					var union []graph.NodeID
					for s := 0; s < P; s++ {
						part, _, err := engs[s].finish(r, screens[s])
						if err != nil {
							t.Fatal(err)
						}
						union = append(union, externalAnswer(slices[s], part)...)
					}
					sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
					if len(union) == 0 {
						union = nil
					}
					if !reflect.DeepEqual(union, want) {
						t.Errorf("%v P=%d q=%d k=%d: shard union %v, identity %v", strategy, P, q, k, union, want)
					}
				}
			}
		}
	}
}
