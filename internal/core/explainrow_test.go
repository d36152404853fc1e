package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rwr"
)

// TestExplainMatchesTable is Explain's row of the oracle table: on every
// family, built and applied, at the table's queries and k, at one and two
// workers, View.Explain and a bare no-update engine's Explain answer as the
// table, and every counter of each equals the same engine's Query, timings
// aside — Explain is the served run. Across the table some decisions are
// exact fallbacks and some confirmations by the next-rank rule.
func TestExplainMatchesTable(t *testing.T) {
	outcomes := map[Outcome]int{}
	row := func(name string, tab *oracle.Table, explain func(q graph.NodeID, k int) (*Explanation, error), query func(q graph.NodeID, k int) (QueryStats, error)) {
		oracle.Check(t, name, tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
			ex, err := explain(q, k)
			if err != nil {
				return nil, err
			}
			st, err := query(q, k)
			if err != nil {
				return nil, err
			}
			if untimed(ex.Stats) != untimed(st) {
				return nil, fmt.Errorf("Explain's stats %+v, Query's %+v", ex.Stats, st)
			}
			members := []graph.NodeID{}
			for _, d := range ex.Decisions {
				outcomes[d.Outcome]++
				if d.InAnswer {
					members = append(members, d.Node)
				}
			}
			return members, nil
		})
	}
	for _, family := range oracle.Families() {
		base := oracle.Family(t, family)
		for _, tab := range []*oracle.Table{base, base.Applied(t)} {
			g, idx := tab.Graph, tab.Index(t)
			view, err := NewView(g, idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				row(fmt.Sprintf("View.Explain workers=%d", workers), tab, func(q graph.NodeID, k int) (*Explanation, error) {
					return view.Explain(q, k, false, workers)
				}, func(q graph.NodeID, k int) (QueryStats, error) {
					_, st, err := view.Query(q, k, workers)
					return st, err
				})
				eng, err := NewEngine(g, idx, false)
				if err != nil {
					t.Fatal(err)
				}
				eng.SetWorkers(workers)
				row(fmt.Sprintf("Engine.Explain workers=%d", workers), tab, func(q graph.NodeID, k int) (*Explanation, error) {
					return eng.Explain(q, k, false)
				}, func(q graph.NodeID, k int) (QueryStats, error) {
					_, st, err := eng.Query(q, k)
					return st, err
				})
			}
		}
	}
	if outcomes[OutcomeFallback] == 0 || outcomes[OutcomeNextRank] == 0 {
		t.Fatalf("decisions by outcome %v: want exact fallbacks and next-rank confirmations", outcomes)
	}
}

// TestExplainBandsHoldProximity: every decision Explain reports, pruned rows
// included, names a band that holds p_u(q). On every family, built and
// applied, at the table's queries and k, the converged PMPN's entry
// (rwr.ProximityToParallel) lies in [Lo − ε(1−α)/α, Hi + ε(1−α)/α], the band
// widened by that vector's own error. Some bands must be wider than that.
func TestExplainBandsHoldProximity(t *testing.T) {
	wide := 0
	for _, family := range oracle.Families() {
		base := oracle.Family(t, family)
		for _, tab := range []*oracle.Table{base, base.Applied(t)} {
			g, idx := tab.Graph, tab.Index(t)
			view, err := NewView(g, idx)
			if err != nil {
				t.Fatal(err)
			}
			tail := convergedTail(idx.Options().RWR)
			for _, q := range tab.Queries {
				pq, err := rwr.ProximityToParallel(g, q, idx.Options().RWR, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range tab.Ks {
					ex, err := view.Explain(q, k, true, 1)
					if err != nil {
						t.Fatal(err)
					}
					if len(ex.Decisions) != g.N() {
						t.Fatalf("%s q=%d k=%d: %d decisions for %d nodes", tab.Name, q, k, len(ex.Decisions), g.N())
					}
					for _, d := range ex.Decisions {
						if p := pq.Vector[d.Node]; p < d.Lo-tail || p > d.Hi+tail {
							t.Fatalf("%s q=%d k=%d: p_u(q) = %g outside the band of %+v", tab.Name, q, k, p, d)
						}
						if d.Hi-d.Lo > 2*tail {
							wide++
						}
					}
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("every band is within the converged vector's error: the bands went untested")
	}
}
