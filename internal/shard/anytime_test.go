package shard

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/workload"
)

// TestShardedAnytimeMatchesUnsharded: with the same round length, the
// sharded anytime answer must EQUAL the unsharded
// View.QueryAnytime's — the shards decide exactly the nodes the full screen
// would, just partitioned. Checked across P, partition strategies and the
// eps sweep.
func TestShardedAnytimeMatchesUnsharded(t *testing.T) {
	for _, kind := range []string{"web", "social"} {
		g, idx := buildCase(t, kind, 350)
		view, err := core.NewView(g, idx)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := workload.Queries(g.N(), 8, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.4, 0.1, 0} {
			type part struct{ g, m []graph.NodeID }
			want := map[graph.NodeID]part{}
			for _, q := range queries {
				res, err := view.QueryAnytime(q, 10, core.AnytimeOptions{Eps: eps}, 2)
				if err != nil {
					t.Fatal(err)
				}
				want[q] = part{res.Guaranteed, res.Maybe}
			}
			for _, p := range []int{1, 3} {
				for strat, pm := range partitions(t, g, p) {
					c, err := NewFromFull(g, idx, pm, Config{Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range queries {
						guaranteed, maybe, stats, err := c.QueryAnytime(q, 10, eps)
						if err != nil {
							t.Fatalf("%s eps=%g P=%d %s q=%d: %v", kind, eps, p, strat, q, err)
						}
						w := want[q]
						if len(w.g) == 0 {
							w.g = nil
						}
						if len(w.m) == 0 {
							w.m = nil
						}
						if !reflect.DeepEqual(guaranteed, w.g) || !reflect.DeepEqual(maybe, w.m) {
							t.Fatalf("%s eps=%g P=%d %s q=%d: sharded %v/%v, unsharded %v/%v",
								kind, eps, p, strat, q, guaranteed, maybe, w.g, w.m)
						}
						if stats.Results != len(guaranteed) || stats.Maybe != len(maybe) {
							t.Fatalf("stats sizes %d/%d, answer %d/%d",
								stats.Results, stats.Maybe, len(guaranteed), len(maybe))
						}
					}
				}
			}
		}
	}
}

// TestShardedAnytimeContainment brackets the sharded anytime answer with
// the exact coordinator answer on the same deployment.
func TestShardedAnytimeContainment(t *testing.T) {
	g, idx := buildCase(t, "web", 300)
	pm, err := partition.NewBalanced(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromFull(g, idx, pm, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.Queries(g.N(), 10, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		exact, _, err := c.Query(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		inExact := map[graph.NodeID]bool{}
		for _, u := range exact {
			inExact[u] = true
		}
		guaranteed, maybe, stats, err := c.QueryAnytime(q, 10, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		cover := map[graph.NodeID]bool{}
		for _, u := range guaranteed {
			if !inExact[u] {
				t.Fatalf("q=%d: guaranteed %d not in exact %v", q, u, exact)
			}
			cover[u] = true
		}
		for _, u := range maybe {
			cover[u] = true
		}
		for _, u := range exact {
			if !cover[u] {
				t.Fatalf("q=%d: exact node %d missing from guaranteed∪maybe", q, u)
			}
		}
		if !stats.Converged && stats.EpsAchieved > 0.25 {
			t.Fatalf("q=%d: early stop with achieved eps %g over budget", q, stats.EpsAchieved)
		}
	}
}

// TestShardedAnytimeValidation covers the eps/parameter guard rails.
func TestShardedAnytimeValidation(t *testing.T) {
	g, idx := buildCase(t, "web", 120)
	pm, err := partition.FromParts(g.N(), 2, []int32{0, 60, 120})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromFull(g, idx, pm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.QueryAnytime(0, 5, 1); err == nil {
		t.Error("eps=1 accepted")
	}
	if _, _, _, err := c.QueryAnytime(0, 5, -0.1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, _, _, err := c.QueryAnytime(-1, 5, 0.1); err == nil {
		t.Error("negative query node accepted")
	}
	if _, _, _, err := c.QueryAnytime(0, 0, 0.1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, _, err := c.QueryAnytime(0, idx.K()+1, 0.1); err == nil {
		t.Error("k beyond index K accepted")
	}
}
