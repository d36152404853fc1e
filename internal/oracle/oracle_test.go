package oracle

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// TestFamiliesHoldTheirShapes pins what each family is in the table for:
// hub query nodes on every family, unequal out-edge weights on skewed, an
// exact tie at the k-th rank of some list on ties, and node growth on every
// applied table.
func TestFamiliesHoldTheirShapes(t *testing.T) {
	for _, name := range Families() {
		tab := Family(t, name)
		for _, hub := range graph.TopByInDegree(tab.Graph, 2) {
			if !slices.Contains(tab.Queries, hub) {
				t.Errorf("%s: hub %d is not a query node", name, hub)
			}
		}
		applied := tab.Applied(t)
		grown := graph.NodeID(tab.Graph.N())
		if applied.Graph.N() != tab.Graph.N()+1 || !slices.Contains(applied.Queries, grown) {
			t.Errorf("%s: applied table has %d nodes (base %d) and queries %v", name, applied.Graph.N(), tab.Graph.N(), applied.Queries)
		}
		if !applied.Graph.Weighted() {
			t.Errorf("%s: the applied table carries no weights", name)
		}
	}
	// A walk leaves some node of skewed by out-edges of different weights.
	skewed, mixed := Family(t, "skewed").Graph, false
	for u := graph.NodeID(0); int(u) < skewed.N() && !mixed; u++ {
		ws := skewed.OutWeightsOf(u)
		mixed = len(ws) > 1 && slices.Min(ws) != slices.Max(ws)
	}
	if !mixed {
		t.Error("skewed: every node's out-edges weigh the same")
	}

	// An exact tie at u's k-th rank, asked about by a query node of the
	// table: p_u(q) is the k-th largest of p_u and equal to the (k+1)-th.
	ties := Family(t, "ties")
	found := 0
	for u, pu := range ties.cols {
		top := vecmath.TopKEntries(pu, K+1)
		for _, k := range ties.Ks {
			if len(top) <= k || top[k-1].Value != top[k].Value {
				continue
			}
			for _, q := range ties.Queries {
				if pu[q] == top[k-1].Value {
					if !slices.Contains(ties.Want(q, k), graph.NodeID(u)) {
						t.Fatalf("ties: u=%d ties q=%d at rank %d, but is not in its answer", u, q, k)
					}
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("ties: no query node ties at the k-th rank of any list")
	}
}

// TestWantIsTheMembershipRule: at k = n every node ranks q in its top-k;
// every answer is ascending; and a node whose k-th largest entry exceeds
// p_u(q) by less than TieTol is a member, by more is not.
func TestWantIsTheMembershipRule(t *testing.T) {
	tab := Family(t, "web")
	n := tab.Graph.N()
	if got := tab.Want(5, n); len(got) != n {
		t.Fatalf("k=n answer has %d of %d nodes", len(got), n)
	}
	for _, q := range tab.Queries {
		if got := tab.Want(q, 10); !slices.IsSorted(got) {
			t.Fatalf("q=%d: answer %v not ascending", q, got)
		}
	}
	// Node 1's list holds node 0 within TieTol of its 2nd entry, node 2's
	// just outside it.
	tb := &Table{Queries: []graph.NodeID{0}, cols: [][]float64{
		{0.5, 0.3, 0.2},
		{0.3 - TieTol/2, 0.5, 0.3},
		{0.3 - 2*TieTol, 0.5, 0.3},
	}, kth: map[int][]float64{}}
	if got := tb.Want(0, 2); !slices.Equal(got, []graph.NodeID{0, 1}) {
		t.Fatalf("the tie tolerance is not applied: node 0's reverse top-2 is %v, want [0 1]", got)
	}
}
