package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/workload"
)

// TestAnytimeGuaranteedSubsetAndRecall holds the hits-only approximation of
// §5.3 — the guaranteed part of an anytime run at ε = 0, δ = 0, which is what
// rtkquery -approx prints — to its contract: a subset of the exact answer,
// every member confirmed by a bound, high recall on a refined web index, and
// that index left as it was.
func TestAnytimeGuaranteedSubsetAndRecall(t *testing.T) {
	g, err := gen.WebGraph(600, 21)
	if err != nil {
		t.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 20
	opts.HubBudget = 8
	opts.Omega = 0
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.Queries(g.N(), 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the index with one update-mode pass (the paper ties the
	// hits-only approximation to the refined-index regime of Fig. 6);
	// then freeze it for the comparison.
	warm, err := NewEngine(g, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, _, err := warm.Query(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	view, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	refined := idx.Refinements()
	var exactTotal, approxTotal, inter int
	for _, q := range queries {
		res, err := view.QueryAnytime(q, 10, AnytimeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		approx, as := res.Guaranteed, res.Stats
		exact, _, err := view.Query(q, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if as.ConfirmedByBound != len(approx) {
			t.Errorf("approximate results must all be bound-confirmed hits: %+v", as)
		}
		inExact := map[graph.NodeID]bool{}
		for _, u := range exact {
			inExact[u] = true
		}
		for _, u := range approx {
			if !inExact[u] {
				t.Errorf("q=%d: approximate answer %d not in exact answer", q, u)
			} else {
				inter++
			}
		}
		exactTotal += len(exact)
		approxTotal += len(approx)
	}
	if idx.Refinements() != refined {
		t.Errorf("approximate queries committed %d refinements", idx.Refinements()-refined)
	}
	// §5.3's observation on web graphs: hits ≈ results, so recall is high.
	recall := float64(inter) / float64(exactTotal)
	if recall < 0.6 {
		t.Errorf("approximate recall %.2f too low (hits %d of %d exact)", recall, approxTotal, exactTotal)
	}
}
