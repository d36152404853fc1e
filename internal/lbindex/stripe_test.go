package lbindex

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bca"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestStripeOfCoversAllStripes pins the stripe map: contiguous ranges, in
// bounds, non-decreasing, and using every stripe when n ≥ lockStripes.
func TestStripeOfCoversAllStripes(t *testing.T) {
	for _, n := range []int{1, 3, lockStripes - 1, lockStripes, 1000} {
		idx := &Index{n: n}
		prev := 0
		seen := map[int]bool{}
		for u := 0; u < n; u++ {
			s := idx.stripeOf(graph.NodeID(u))
			if s < 0 || s >= lockStripes {
				t.Fatalf("n=%d u=%d: stripe %d out of range", n, u, s)
			}
			if s < prev {
				t.Fatalf("n=%d u=%d: stripe %d below previous %d (not contiguous ranges)", n, u, s, prev)
			}
			prev = s
			seen[s] = true
		}
		if n >= lockStripes && len(seen) != lockStripes {
			t.Errorf("n=%d: only %d of %d stripes used", n, len(seen), lockStripes)
		}
	}
}

// TestConcurrentCommitsAndGlobalOps hammers the striped index from three
// sides at once — per-node commits, per-node reads, and whole-index
// operations (Save, SizeBytes, CheckInvariants) — to prove the stripes
// compose without deadlock or torn state. Run with -race.
func TestConcurrentCommitsAndGlobalOps(t *testing.T) {
	g, err := gen.WebGraph(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.K = 10
	opts.HubBudget = 4
	opts.Workers = 2
	idx, _, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	var nonHub []graph.NodeID
	for u := 0; u < g.N(); u++ {
		if !idx.IsHub(graph.NodeID(u)) {
			nonHub = append(nonHub, graph.NodeID(u))
		}
	}

	var wg sync.WaitGroup
	// Committers: refine states one BCA step and commit them back, spread
	// over the whole node range (and thus over all stripes).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := bca.NewWorkspace(g.N())
			hm := idx.HubMatrix()
			cfg := idx.Options().BCA
			for i := w; i < len(nonHub); i += 3 {
				u := nonHub[i]
				st := idx.StateSnapshot(u)
				if st == nil {
					continue
				}
				if st.BatchInk(cfg.Eta) == 0 && !st.Summarized() && st.RNorm != 0 {
					t.Errorf("node %d: stored state with residue %g but no batch ink is not summarized", u, st.RNorm)
				}
				if st.Summarized() {
					continue // a summary takes no step
				}
				bca.Step(g, st, hm, cfg, ws)
				idx.Commit(u, st, bca.TopK(st, hm, ws, idx.K()))
			}
		}(w)
	}
	// Readers: per-node accessors across every stripe.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for u := 0; u < g.N(); u++ {
					id := graph.NodeID(u)
					_ = idx.KthLowerBound(id, 5)
					_ = idx.ResidueNorm(id)
					_ = idx.RoundingSlack(id)
				}
			}
		}()
	}
	// Whole-index operations interleaved with the commits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			if err := idx.CheckInvariants(); err != nil {
				t.Error(err)
				return
			}
			_ = idx.SizeBytes()
			var buf bytes.Buffer
			if err := idx.Save(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := Load(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if idx.Refinements() == 0 {
		t.Error("no refinements recorded despite commits")
	}
}
