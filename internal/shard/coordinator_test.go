package shard

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
	"repro/internal/partition"
)

// partitions returns two maps of g over p shards: the balanced one, and as
// stored bounds the equal-count cut the removed range partitioner made.
func partitions(t *testing.T, g *graph.Graph, p int) map[string]*partition.Map {
	t.Helper()
	cut := make([]int32, p+1)
	for i := range cut {
		cut[i] = int32(i * g.N() / p)
	}
	out := map[string]*partition.Map{}
	var err error
	if out["range"], err = partition.FromParts(g.N(), p, cut); err != nil {
		t.Fatal(err)
	}
	if out["balanced"], err = partition.NewBalanced(g, p); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoordinatorMatchesSingleEngine is the coordinator's row of the oracle
// table: the merged answer is brute force's, and the shards' decisions cover
// every node once. On web and social it runs every P ∈ {1, 2, 3, 4}, cut
// balanced and at equal counts, at one and four workers; on the other
// families P ∈ {1, 3} or {2, 4} by turns, each P cut one way, at one worker
// count.
func TestCoordinatorMatchesSingleEngine(t *testing.T) {
	for i, family := range oracle.Families() {
		tab := oracle.Family(t, family)
		g, idx := tab.Graph, tab.Index(t)
		full := family == "web" || family == "social"
		for p := 1; p <= 4; p++ {
			for strat, pm := range partitions(t, g, p) {
				for _, workers := range []int{1, 4} {
					if !full && ((p+i)%2 == 0 || strat != []string{"balanced", "range"}[((p-1)/2+i/2)%2] || workers != 1+3*(i/2%2)) {
						continue
					}
					c, err := NewFromFull(g, idx, pm, Config{Workers: workers})
					if err != nil {
						t.Fatalf("%s P=%d %s: %v", family, p, strat, err)
					}
					oracle.Check(t, fmt.Sprintf("Coordinator.Query P=%d %s workers=%d", p, strat, workers), tab, coordinatorRow(c, g.N()))
				}
			}
		}
	}
}

// coordinatorRow is c's exact answer as an oracle row, checking that the
// shards' decisions cover all n nodes and that the stats count the answer.
func coordinatorRow(c *Coordinator, n int) func(q graph.NodeID, k int) ([]graph.NodeID, error) {
	return func(q graph.NodeID, k int) ([]graph.NodeID, error) {
		got, stats, err := c.Query(q, k)
		if err != nil {
			return nil, err
		}
		if covered := stats.PrunedByBound + stats.ConfirmedByBound + stats.Maybe; covered != n {
			return nil, fmt.Errorf("decisions cover %d of %d nodes", covered, n)
		}
		if stats.Results != len(got) {
			return nil, fmt.Errorf("stats.Results=%d, answer has %d", stats.Results, len(got))
		}
		return got, nil
	}
}

// TestCoordinatorClosedBallMatchesView: a query node whose backward ball
// closes keeps the coordinator's shared PMPN inside its ball phase from the
// first round to the last. The answer must be the single View's, and so must
// the iteration count whenever the coordinator ran the iteration to
// convergence (a bound-decided early stop runs fewer).
func TestCoordinatorClosedBallMatchesView(t *testing.T) {
	tab := oracle.Family(t, "web")
	g, idx := tab.Graph, tab.Index(t)
	view, err := core.NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := partition.NewBalanced(g, 2)
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
				if !slices.Equal(got, want) {
					t.Fatalf("q=%d k=%d w=%d: coordinator %v, view %v", q, k, workers, got, want)
				}
				if stats.Converged {
					converged++
				}
				// One round schedule and one set of stop rules: the same
				// stop as the view's, and an unconverged stop with rows open
				// left every one of them final.
				if stats.PMPNIters != wst.PMPNIters || !stats.Converged && stats.Maybe > 0 && !stats.Final {
					t.Fatalf("q=%d k=%d w=%d: coordinator ran %d PMPN iterations (converged %v, final %v, %d open), the view %d",
						q, k, workers, stats.PMPNIters, stats.Converged, stats.Final, stats.Maybe, wst.PMPNIters)
				}
			}
		}
	}
	if closed == 0 || converged == 0 {
		t.Fatalf("%d closed-ball queries, %d of them run to convergence: nothing exercised", closed, converged)
	}
}

// TestCoordinatorMatchesBruteForce is the row of shard-slice files and of a
// shard that owns no node: a family split three ways with an empty middle
// shard, each slice saved to its file and served zero-copy from it. The
// coordinator over the loaded slices answers as brute force, and the empty
// slice has no rows to decide — through the coordinator and through a
// core.View of its own — and must not mistake its empty range for a full
// index.
func TestCoordinatorMatchesBruteForce(t *testing.T) {
	for _, family := range []string{"web", "ties"} {
		tab := oracle.Family(t, family)
		g, idx := tab.Graph, tab.Index(t)
		n := int32(g.N())
		pm, err := partition.FromParts(g.N(), 3, []int32{0, n / 2, n / 2, n})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		var parts []*lbindex.Index
		for s := 0; s < pm.P(); s++ {
			slice, err := idx.ShardSlice(pm, s)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("i.idx.shard%dof3", s))
			if err := slice.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			if slice, err = lbindex.LoadFile(path, lbindex.LoadOptions{Mmap: true}); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, slice)
		}
		c, err := NewInProc(parts[0].Graph(), parts, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		empty, query := c.Views()[1], coordinatorRow(c, g.N())
		oracle.Check(t, "Coordinator.Query over slice files", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
			got, err := query(q, k)
			if err != nil {
				return nil, err
			}
			if alone, st, err := empty.Query(q, k, 1); err != nil || len(alone) != 0 || st.Screened != 0 {
				return nil, fmt.Errorf("shard 1 owns nothing, its view answered %v after screening %d rows (%v)", alone, st.Screened, err)
			}
			return got, nil
		})
	}
}

// TestCoordinatorBoundPruning checks the cross-shard exchange does real
// work: on a reasonable graph most of the node set must be pruned or
// confirmed by partial-iterate bounds, not by the final exact pass.
func TestCoordinatorBoundPruning(t *testing.T) {
	tab := oracle.Family(t, "web")
	g, idx := tab.Graph, tab.Index(t)
	pm, err := partition.FromParts(g.N(), 4, []int32{0, 75, 150, 225, 300})
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

// TestCoordinatorValidation covers the constructor and query guard rails,
// among them a slice set whose slices come from indexes of two graphs.
func TestCoordinatorValidation(t *testing.T) {
	tab := oracle.Family(t, "web")
	g, idx := tab.Graph, tab.Index(t)
	pm, err := partition.FromParts(g.N(), 2, []int32{0, 150, 300})
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
	other, err := partition.FromParts(g.N(), 2, []int32{0, 1, int32(g.N())})
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
	oidx, _, err := lbindex.Build(oracle.Other(t), idx.Options())
	if err != nil {
		t.Fatal(err)
	}
	x1, err := oidx.ShardSlice(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInProc(g, []*lbindex.Index{s0, x1}, Config{}); err == nil {
		t.Error("slices of two graphs accepted")
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

// TestNewInProcRefusesOtherGraph is NewInProc's row of the oracle table's
// pairing check, over the two slices of a 2-way cut and over a full index
// alone: the coordinator runs the PMPN over the graph it is given, so it
// refuses a graph other than the one its slices were built on.
func TestNewInProcRefusesOtherGraph(t *testing.T) {
	oracle.CheckPairing(t, "NewInProc", func(g *graph.Graph, idx *lbindex.Index) error {
		pm, err := partition.NewBalanced(idx.Graph(), 2)
		if err != nil {
			return err
		}
		var parts []*lbindex.Index
		for s := 0; s < 2; s++ {
			slice, err := idx.ShardSlice(pm, s)
			if err != nil {
				return err
			}
			parts = append(parts, slice)
		}
		_, err = NewInProc(g, parts, Config{})
		return err
	})
	oracle.CheckPairing(t, "NewInProc over a full index", func(g *graph.Graph, idx *lbindex.Index) error {
		_, err := NewInProc(g, []*lbindex.Index{idx}, Config{})
		return err
	})
}
