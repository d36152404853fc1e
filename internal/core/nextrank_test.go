package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rwr"
)

// TestNextRankRuleOnFamilies holds refine's next-rank rule
// (confirmedByNextRank) to its definition and to the oracle table. On every
// family's index, for every row and every k < K, the rule is strict — it
// does not fire at lo = UpperBound(p̂, k+1, ρ) and fires at the next float up
// — and it never fires at k = K. At the table's queries, read with p_u(q)
// from the converged PMPN less its own error, every row it confirms is in the
// table's answer; and it confirms rows the rank-k bound leaves open, so it
// decides what Algorithm 4's own test cannot.
func TestNextRankRuleOnFamilies(t *testing.T) {
	added := 0
	for _, family := range oracle.Families() {
		tab := oracle.Family(t, family)
		g, idx := tab.Graph, tab.Index(t)
		p := idx.Options().RWR
		slack := convergedTail(p)
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			phat, rho := idx.PHatRow(u), idx.ResidueNorm(u)+idx.RoundingSlack(u)
			for k := 1; k < idx.K(); k++ {
				ub := UpperBound(phat, k+1, rho)
				if confirmedByNextRank(phat, k, rho, ub) || !confirmedByNextRank(phat, k, rho, math.Nextafter(ub, math.Inf(1))) {
					t.Fatalf("%s u=%d k=%d: the rule at UB(k+1) = %g is not strict or does not fire just above it", family, u, k, ub)
				}
			}
			if confirmedByNextRank(phat, idx.K(), rho, math.Inf(1)) {
				t.Fatalf("%s u=%d: the rule fired at k = K", family, u)
			}
		}
		for _, q := range tab.Queries {
			x, err := rwr.ProximityTo(g, q, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range tab.Ks {
				want := tab.Want(q, k)
				for u := graph.NodeID(0); int(u) < g.N(); u++ {
					phat, rho := idx.PHatRow(u), idx.ResidueNorm(u)+idx.RoundingSlack(u)
					lo := x.Vector[u] - slack
					if !confirmedByNextRank(phat, k, rho, lo) {
						continue
					}
					if _, member := slices.BinarySearch(want, u); !member {
						t.Fatalf("%s q=%d k=%d: the rule confirms u=%d (p_u(q) ≥ %g > UB(k+1) = %g), which the table leaves out",
							family, q, k, u, lo, UpperBound(phat, k+1, rho))
					}
					if lo < UpperBound(phat, k, rho)-defaultTieTol {
						added++
					}
				}
			}
		}
	}
	if added == 0 {
		t.Fatal("the rule never confirmed a row the rank-k bound leaves open: it went untested")
	}
	t.Logf("%d rows confirmed by the next-rank rule that the rank-k bound leaves open", added)
}
