package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/partition"
	"repro/internal/workload"
)

func buildCase(t *testing.T, kind string, n int) (*graph.Graph, *lbindex.Index) {
	t.Helper()
	var (
		g   *graph.Graph
		err error
	)
	switch kind {
	case "web":
		g, err = gen.WebGraph(n, 17)
	case "social":
		g, err = gen.SocialGraph(n, 17)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 24
	opts.HubBudget = 8
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, idx
}

func partitions(t *testing.T, g *graph.Graph, p int) map[string]*partition.Map {
	t.Helper()
	out := map[string]*partition.Map{}
	var err error
	if out["hash"], err = partition.NewHash(g.N(), p, 99); err != nil {
		t.Fatal(err)
	}
	if out["range"], err = partition.NewRange(g.N(), p); err != nil {
		t.Fatal(err)
	}
	if out["balanced"], err = partition.NewBalanced(g, p); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoordinatorMatchesSingleEngine is the distributed-correctness oracle:
// for every graph family × k × P × strategy × worker count, the merged
// coordinator answer must equal the single-engine answer node for node.
func TestCoordinatorMatchesSingleEngine(t *testing.T) {
	for _, kind := range []string{"web", "social"} {
		g, idx := buildCase(t, kind, 350)
		single, err := core.NewEngine(g, idx, false)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := workload.Queries(g.N(), 12, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 20} {
			want := map[graph.NodeID][]graph.NodeID{}
			for _, q := range queries {
				ans, _, err := single.Query(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want[q] = ans
			}
			for _, p := range []int{1, 2, 4} {
				for strat, pm := range partitions(t, g, p) {
					for _, workers := range []int{1, 4} {
						c, err := NewFromFull(g, idx, pm, Config{Workers: workers})
						if err != nil {
							t.Fatalf("%s k=%d P=%d %s: %v", kind, k, p, strat, err)
						}
						for _, q := range queries {
							got, stats, err := c.Query(q, k)
							if err != nil {
								t.Fatalf("%s k=%d P=%d %s w=%d q=%d: %v", kind, k, p, strat, workers, q, err)
							}
							if !equalIDs(got, want[q]) {
								t.Fatalf("%s k=%d P=%d %s w=%d q=%d: got %v want %v (stats %+v)",
									kind, k, p, strat, workers, q, got, want[q], stats)
							}
							if stats.PrunedByBound+stats.ConfirmedByBound+stats.Survivors != g.N() {
								t.Fatalf("%s k=%d P=%d %s q=%d: decisions cover %d of %d nodes",
									kind, k, p, strat, q,
									stats.PrunedByBound+stats.ConfirmedByBound+stats.Survivors, g.N())
							}
							if stats.Results != len(got) {
								t.Fatalf("stats.Results=%d, answer has %d", stats.Results, len(got))
							}
						}
					}
				}
			}
		}
	}
}

// TestCoordinatorClosedBallMatchesView: a query node whose backward ball
// closes keeps the coordinator's shared PMPN inside its ball phase from the
// first round to the last. The answer must be the single View's, and so must
// the iteration count whenever the coordinator ran the iteration to
// convergence (a bound-decided early stop runs fewer).
func TestCoordinatorClosedBallMatchesView(t *testing.T) {
	g, idx := buildCase(t, "web", 350)
	view, err := core.NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := partition.NewHash(g.N(), 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	closed, converged := 0, 0
	for _, workers := range []int{1, 4} {
		c, err := NewFromFull(g, idx, pm, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for q := graph.NodeID(0); int(q) < g.N(); q++ {
			for _, k := range []int{1, 10} {
				want, wst, err := view.Query(q, k, workers)
				if err != nil {
					t.Fatal(err)
				}
				if wst.Screened == g.N() {
					continue // the ball did not close: the dense sweep, covered above
				}
				closed++
				got, stats, err := c.Query(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !equalIDs(got, want) {
					t.Fatalf("q=%d k=%d w=%d: coordinator %v, view %v", q, k, workers, got, want)
				}
				if !stats.EarlyStop {
					converged++
				}
				if stats.PMPNIters > wst.PMPNIters || (!stats.EarlyStop && stats.PMPNIters != wst.PMPNIters) {
					t.Fatalf("q=%d k=%d w=%d: coordinator ran %d PMPN iterations (early stop %v), the view %d",
						q, k, workers, stats.PMPNIters, stats.EarlyStop, wst.PMPNIters)
				}
			}
		}
	}
	if closed == 0 || converged == 0 {
		t.Fatalf("%d closed-ball queries, %d of them run to convergence: nothing exercised", closed, converged)
	}
}

// TestCoordinatorMatchesBruteForce anchors the whole stack to the paper's
// §3 brute-force definition on two configurations: a web graph split three
// ways, and a twelve-node graph hashed six ways so that one shard owns no node
// at all — whose slice has no rows to decide, through the coordinator and
// through a core.View of its own, and must not mistake its nil owned list for
// a full index.
func TestCoordinatorMatchesBruteForce(t *testing.T) {
	web, webIdx := buildCase(t, "web", 250)
	tiny, err := gen.ErdosRenyi(12, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K, opts.HubBudget = 4, 2
	tinyIdx, _, err := lbindex.Build(tiny, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		idx     *lbindex.Index
		p, k    int
		seed    uint64
		queries []graph.NodeID
		empty   int // shards owning no node
	}{
		{"web", web, webIdx, 3, 10, 1, []graph.NodeID{0, 17, 249}, 0},
		{"empty shard", tiny, tinyIdx, 6, 3, 0, []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 1},
	} {
		pm, err := partition.NewHash(tc.g.N(), tc.p, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewFromFull(tc.g, tc.idx, pm, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		empty := 0
		for _, q := range tc.queries {
			want, err := core.BruteForce(tc.g, q, tc.k, tc.idx.Options().RWR, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := c.Query(q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(got, want) {
				t.Fatalf("%s q=%d: coordinator %v, brute force %v", tc.name, q, got, want)
			}
			if covered := stats.PrunedByBound + stats.ConfirmedByBound + stats.Survivors; covered != tc.g.N() {
				t.Fatalf("%s q=%d: decisions cover %d of %d nodes", tc.name, q, covered, tc.g.N())
			}
			empty = 0
			for s, v := range c.Views() {
				if pm.OwnedCount(s) > 0 {
					continue
				}
				empty++
				alone, st, err := v.Query(q, tc.k, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(alone) != 0 || st.Screened != 0 {
					t.Fatalf("%s q=%d: shard %d owns nothing, its view answered %v after screening %d rows", tc.name, q, s, alone, st.Screened)
				}
			}
		}
		if empty < tc.empty {
			t.Fatalf("%s: %d shards own nothing, want at least %d: the empty slice went untested", tc.name, empty, tc.empty)
		}
	}
}

// TestCoordinatorBoundPruning checks the cross-shard exchange does real
// work: on a reasonable graph most of the node set must be pruned or
// confirmed by partial-iterate bounds, not by the final exact pass.
func TestCoordinatorBoundPruning(t *testing.T) {
	g, idx := buildCase(t, "web", 400)
	pm, err := partition.NewRange(g.N(), 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromFull(g, idx, pm, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	totalPruned, multiRound := 0, 0
	for q := graph.NodeID(0); q < 20; q++ {
		_, stats, err := c.Query(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		totalPruned += stats.PrunedByBound
		if stats.Rounds >= 2 {
			multiRound++
		}
	}
	if totalPruned == 0 {
		t.Fatal("no candidates pruned by cross-shard bound exchange")
	}
	if multiRound == 0 {
		t.Fatal("no query ran more than one bound-exchange round")
	}
}

// TestCoordinatorValidation covers the constructor and query guard rails.
func TestCoordinatorValidation(t *testing.T) {
	g, idx := buildCase(t, "web", 120)
	pm, err := partition.NewRange(g.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := idx.ShardSlice(pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := idx.ShardSlice(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInProc(g, []*lbindex.Index{s1, s0}, Config{}); err == nil {
		t.Error("out-of-order slices accepted")
	}
	if _, err := NewInProc(g, []*lbindex.Index{s0, idx}, Config{}); err == nil {
		t.Error("full index in a 2-slice set accepted")
	}
	other, err := partition.NewHash(g.N(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	o1, err := idx.ShardSlice(other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInProc(g, []*lbindex.Index{s0, o1}, Config{}); err == nil {
		t.Error("mismatched partition maps accepted")
	}
	c, err := NewInProc(g, []*lbindex.Index{s0, s1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(-1, 5); err == nil {
		t.Error("negative query node accepted")
	}
	if _, _, err := c.Query(0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := c.Query(0, idx.K()+1); err == nil {
		t.Error("k beyond index K accepted")
	}
	// A full index alone is a legal single-shard deployment.
	if _, err := NewInProc(g, []*lbindex.Index{idx}, Config{}); err != nil {
		t.Errorf("single full index rejected: %v", err)
	}
}

func equalIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
