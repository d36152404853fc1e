package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/rwr"
	"repro/internal/shard"
)

// TestFinalStopMatchesConverged is the final-screen stop's row of the oracle
// table (core.Run.Rounds). On every family, built and applied, at the table's
// queries and k, the exact schedule over a View's screen is held to the same
// query run to convergence — the converged PMPN (rwr.ProximityToParallel)
// screened once at τ = 0 by a screen of the view, read as the reference. The
// run must stop with that screen's hits and
// survivors, on a final screen whenever it stops unconverged with rows open,
// after no more PMPN iterations; its finish, View.Query and a two-shard
// Coordinator.Query must answer as the table. The runs must include some the
// backward push ended alone and some it handed over to the power method.
func TestFinalStopMatchesConverged(t *testing.T) {
	final, pushed, handedOver := 0, 0, 0
	for _, family := range oracle.Families() {
		base := oracle.Family(t, family)
		for _, tab := range []*oracle.Table{base, base.Applied(t)} {
			g, idx := tab.Graph, tab.Index(t)
			view, err := core.NewView(g, idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range tab.Ks {
				for _, q := range tab.Queries {
					s, err := view.NewScreen(k)
					if err != nil {
						t.Fatal(err)
					}
					r, err := core.NewRun(g, q, idx.Options().RWR, 1, nil, s)
					if err == nil {
						err = r.Rounds(0)
					}
					if err != nil {
						t.Fatal(err)
					}
					st := r.Stats()
					if st.PMPNHandover {
						handedOver++
					} else {
						pushed++
					}
					pq, err := rwr.ProximityToParallel(g, q, idx.Options().RWR, 1)
					if err != nil {
						t.Fatal(err)
					}
					conv, err := view.NewScreen(k)
					if err != nil {
						t.Fatal(err)
					}
					conv.Advance(pq.Vector, 0)
					hits, open := slices.Sorted(slices.Values(conv.Hits())), conv.Survivors()
					gotHits, gotOpen := slices.Sorted(slices.Values(s.Hits())), slices.Sorted(slices.Values(s.Survivors()))
					if !slices.Equal(gotHits, hits) || !slices.Equal(gotOpen, open) {
						t.Fatalf("%s q=%d k=%d: stopped with hits %v and survivors %v (%+v), converged %v and %v",
							tab.Name, q, k, gotHits, gotOpen, st, hits, open)
					}
					if !st.Converged && st.Maybe > 0 {
						if !st.Final || st.PMPNTail <= 0 {
							t.Fatalf("%s q=%d k=%d: stopped unconverged with %d rows open, not final (%+v)", tab.Name, q, k, st.Maybe, st)
						}
						final++
					}
					if st.PMPNIters > pq.Iterations {
						t.Fatalf("%s q=%d k=%d: %d PMPN iterations, %d to convergence", tab.Name, q, k, st.PMPNIters, pq.Iterations)
					}
					got, _, err := view.Finish(r, s, 1)
					if err != nil {
						t.Fatal(err)
					}
					if want := tab.Want(q, k); !slices.Equal(got, want) {
						t.Fatalf("%s q=%d k=%d: finished %v, brute force %v (%+v)", tab.Name, q, k, got, want, st)
					}
				}
			}
			oracle.Check(t, "View.Query", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
				ans, _, err := view.Query(q, k, 1)
				return ans, err
			})
			pm, err := partition.NewBalanced(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			c, err := shard.NewFromFull(g, idx, pm, shard.Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			oracle.Check(t, "Coordinator.Query", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
				ans, _, err := c.Query(q, k)
				return ans, err
			})
		}
	}
	if final == 0 {
		t.Fatal("no run stopped on a final screen with rows open: the rule went untested")
	}
	if pushed == 0 || handedOver == 0 {
		t.Fatalf("runs the push ended alone: %d, handed over to the power method: %d; want both", pushed, handedOver)
	}
	t.Logf("%d runs stopped on a final screen with rows open", final)
}
