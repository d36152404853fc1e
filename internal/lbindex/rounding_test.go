package lbindex_test

import (
	"fmt"
	"testing"

	"repro/internal/bca"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// roundingFixtures are a small web graph at the paper's η and the 512-node
// social graph that mixes summarized and folded states.
func roundingFixtures(t *testing.T) map[string]struct {
	g   *graph.Graph
	idx *lbindex.Index
} {
	t.Helper()
	web, err := gen.WebGraph(600, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 16
	opts.HubBudget = 8
	opts.Workers = 2
	webIdx, _, err := lbindex.Build(web, opts)
	if err != nil {
		t.Fatal(err)
	}
	social, socialIdx, _ := lbindex.SummarizedSocial(t)
	return map[string]struct {
		g   *graph.Graph
		idx *lbindex.Index
	}{"web": {web, webIdx}, "social": {social, socialIdx}}
}

// roundedFrom reports whether f is v rounded toward zero to float32: no
// larger, and smaller by less than one float32 ulp — 2⁻²³·v in the normal
// range, 2⁻¹⁴⁹ below it.
func roundedFrom(f, v float64) bool {
	return f <= v && f >= v*(1-0x1p-23)-0x1p-149
}

// TestRoundedValuesBracketTheirSource: every value the index stores — each
// state's R, W and S, and each hub column — is at most the float64 value it
// was rounded from and at least that value times 1 − 2⁻²³. The sources are a
// fresh BCA run of each node and a fresh power-method solve of each hub.
func TestRoundedValuesBracketTheirSource(t *testing.T) {
	for name, fx := range roundingFixtures(t) {
		g, idx := fx.g, fx.idx
		hm, cfg := idx.HubMatrix(), idx.Options().BCA
		ws := bca.NewWorkspace(g.N())
		checked := 0
		check := func(what string, stored, source vecmath.Sparse) {
			t.Helper()
			for i, x := range stored.Idx {
				if v := source.Get(x); !roundedFrom(stored.Val[i], v) {
					t.Fatalf("%s %s entry %d: stored %g is not %g rounded toward zero to float32", name, what, x, stored.Val[i], v)
				}
				checked++
			}
		}
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			if hm.IsHub(u) {
				continue
			}
			fresh, err := bca.Run(g, u, hm, cfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			st := idx.StateSnapshot(u)
			label := fmt.Sprintf("node %d", u)
			check(label+" R", st.R, fresh.R)
			check(label+" W", st.W, fresh.W)
			check(label+" S", st.S, fresh.S)
		}
		_, hubs, cols, _, _, _ := hm.Parts()
		for i, h := range hubs {
			exact, err := rwr.ProximityVector(g, h, idx.Options().RWR)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("hub %d column", h), cols[i].Widen(), vecmath.GatherSparse(exact.Vector, 0))
		}
		if checked == 0 {
			t.Fatalf("%s: no stored value checked", name)
		}
		t.Logf("%s: %d stored values checked", name, checked)
	}
}

// TestRoundedBoundsBracketExactPkmax: with values rounded to float32 the
// index's bounds still bracket the truth. For every non-hub u and
// k ∈ {1, 5, K}, the exact k-th largest proximity from u (rwr.ProximityMatrix,
// solved far tighter than the index's ε) satisfies
// p̂(k) ≤ pkmax_u ≤ UpperBound(p̂, k, ‖r‖₁ + RoundingSlack) for the stored
// state, and again after one bca.Step of its snapshot, with the stepped
// state's p̂ and ‖r‖₁ + StateSlack.
func TestRoundedBoundsBracketExactPkmax(t *testing.T) {
	const tol = 1e-11
	for name, fx := range roundingFixtures(t) {
		g, idx := fx.g, fx.idx
		hm, cfg, kmax := idx.HubMatrix(), idx.Options().BCA, idx.K()
		p := idx.Options().RWR
		p.Eps = 1e-14
		exact, err := rwr.ProximityMatrix(g, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		ws := bca.NewWorkspace(g.N())
		stepped := 0
		bracket := func(when string, u graph.NodeID, phat []float64, rho float64) {
			t.Helper()
			for _, k := range []int{1, 5, kmax} {
				pk := vecmath.KthLargest(exact[u], k)
				if lb := phat[k-1]; lb > pk+tol {
					t.Fatalf("%s node %d k=%d %s: lower bound %.17g above pkmax %.17g", name, u, k, when, lb, pk)
				}
				if ub := core.UpperBound(phat, k, rho); pk > ub+tol {
					t.Fatalf("%s node %d k=%d %s: pkmax %.17g above upper bound %.17g (ρ = %g)", name, u, k, when, pk, ub, rho)
				}
			}
		}
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			if hm.IsHub(u) {
				continue
			}
			bracket("stored", u, idx.PHatRow(u), idx.ResidueNorm(u)+idx.RoundingSlack(u))
			st := idx.StateSnapshot(u)
			if st.Summarized() || bca.Step(g, st, hm, cfg, ws) == 0 {
				continue
			}
			stepped++
			bracket("after one step", u, bca.TopK(st, hm, ws, kmax), st.RNorm+idx.StateSlack(st))
		}
		if stepped == 0 {
			t.Fatalf("%s: no stored state took a step", name)
		}
		t.Logf("%s: %d states stepped", name, stepped)
	}
}
