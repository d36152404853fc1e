package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/shard"
)

// fallbackPaths tallies, over the exact queries of one family, how their
// fallbacks were decided: by the forward push alone, or handed over to the
// slab (QueryStats.FallbackPushDecided against ExactFallbacks). A family that
// meets only one has left a path of the fallback untested.
type fallbackPaths struct{ pushed, handedOver int }

func (p *fallbackPaths) add(st core.QueryStats) {
	p.pushed += st.FallbackPushDecided
	p.handedOver += st.ExactFallbacks - st.FallbackPushDecided
}

// TestFallbackPushMatchesTable is the forward push's row of the oracle table
// (core's resolveExact): on every family, built and applied, at the table's
// queries and k, View.Query, View.Explain's members and a two-shard
// Coordinator.Query answer as the table at one and two workers. Every family
// hands fallbacks over to the slab, and the table as a whole has fallbacks
// the push decided too. Not every family has those: the social-like ones
// (coauthor, social, bridged) spread every column past the first round's row
// cap, and decide none even without it, and web's 300 nodes put that cap at
// 37 rows; spam, sinks, skewed and ties decide hundreds.
// TestPushColumnDecidesAsTable holds the push's own decisions to the table.
func TestFallbackPushMatchesTable(t *testing.T) {
	var all fallbackPaths
	for _, family := range oracle.Families() {
		var paths fallbackPaths
		base := oracle.Family(t, family)
		for _, tab := range []*oracle.Table{base, base.Applied(t)} {
			g, idx := tab.Graph, tab.Index(t)
			view, err := core.NewView(g, idx)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := partition.NewBalanced(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				oracle.Check(t, fmt.Sprintf("View.Query workers=%d", workers), tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
					ans, st, err := view.Query(q, k, workers)
					if workers == 1 {
						paths.add(st)
					}
					return ans, err
				})
				oracle.Check(t, fmt.Sprintf("View.Explain's members workers=%d", workers), tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
					ex, err := view.Explain(q, k, false, workers)
					if err != nil {
						return nil, err
					}
					members := []graph.NodeID{}
					for _, d := range ex.Decisions {
						if d.InAnswer {
							members = append(members, d.Node)
						}
					}
					return members, nil
				})
				c, err := shard.NewFromFull(g, idx, pm, shard.Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				oracle.Check(t, fmt.Sprintf("Coordinator.Query workers=%d", workers), tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
					ans, _, err := c.Query(q, k)
					return ans, err
				})
			}
		}
		t.Logf("%s: %d fallbacks decided by the push, %d handed over to the slab", family, paths.pushed, paths.handedOver)
		if paths.handedOver == 0 {
			t.Errorf("%s: no fallback handed over to the slab (%d decided by the push)", family, paths.pushed)
		}
		all.pushed += paths.pushed
		all.handedOver += paths.handedOver
	}
	if all.pushed == 0 || all.handedOver == 0 {
		t.Errorf("fallbacks the push decided: %d, handed over to the slab: %d; want both", all.pushed, all.handedOver)
	}
}
