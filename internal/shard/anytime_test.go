package shard

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
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
		tab := oracle.Family(t, kind)
		g, idx := tab.Graph, tab.Index(t)
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
						if !slices.Equal(guaranteed, w.g) || !slices.Equal(maybe, w.m) {
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

// TestShardedAnytimeContainment is the sharded anytime tier's row of the
// oracle table: on every family at P ∈ {2, 4} or {1, 3} balanced shards by
// turns, the two-part answer brackets brute force's, and meets its budget
// unless the PMPN converged or the screens were final first.
func TestShardedAnytimeContainment(t *testing.T) {
	for i, family := range oracle.Families() {
		tab := oracle.Family(t, family)
		g, idx := tab.Graph, tab.Index(t)
		for p := 2 - i%2; p <= 4; p += 2 {
			pm, err := partition.NewBalanced(g, p)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewFromFull(g, idx, pm, Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			oracle.CheckAnytime(t, fmt.Sprintf("Coordinator.QueryAnytime P=%d", p), tab,
				func(q graph.NodeID, k int) ([]graph.NodeID, []graph.NodeID, error) {
					guaranteed, maybe, stats, err := c.QueryAnytime(q, k, 0.25)
					if err == nil && !stats.Converged && !stats.Final && stats.EpsAchieved > 0.25 {
						err = fmt.Errorf("early stop with achieved eps %g over budget", stats.EpsAchieved)
					}
					return guaranteed, maybe, err
				})
		}
	}
}

// TestShardedAnytimeValidation covers the eps/parameter guard rails.
func TestShardedAnytimeValidation(t *testing.T) {
	tab := oracle.Family(t, "web")
	g, idx := tab.Graph, tab.Index(t)
	pm, err := partition.FromParts(g.N(), 2, []int32{0, 150, 300})
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
