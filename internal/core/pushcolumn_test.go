package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestPushColumnDecidesAsTable holds the forward push's decision rule
// (pushColumn, columnMember on est ≤ p_u ≤ est + ‖r‖₁) to the oracle table
// on every (family, q, k) and every node u as the candidate, with no PMPN
// band to help: whenever the push decides u, it decides u's membership as
// the table does. Most of those candidates are far from the boundary, so the
// push decides them in its first rounds, on the roughest estimates — where a
// bracket that left out the residue's reach would misjudge.
func TestPushColumnDecidesAsTable(t *testing.T) {
	decided := 0
	for _, family := range oracle.Families() {
		tab := oracle.Family(t, family)
		g := tab.Graph
		e, err := NewEngine(g, tab.Index(t), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tab.Queries {
			for _, k := range tab.Ks {
				want := tab.Want(q, k)
				for u := graph.NodeID(0); int(u) < g.N(); u++ {
					o, err := e.pushColumn(pendingFallback{u: u, band: math.Inf(1)}, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !o.pushed {
						continue
					}
					decided++
					if _, in := slices.BinarySearch(want, u); o.member != in {
						t.Fatalf("%s q=%d k=%d: the push decided u=%d member=%v after %d edges, the table says %v",
							tab.Name, q, k, u, o.member, o.pushEdges, in)
					}
				}
			}
		}
	}
	if decided == 0 {
		t.Fatal("the push decided no candidate: its rule went untested")
	}
	t.Logf("%d candidates decided by the push", decided)
}
