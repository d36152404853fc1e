package lbindex

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bca"
	"repro/internal/gen"
	"repro/internal/graph"
)

// summarizedSocial builds the index of a generated social graph that mixes
// summarized and whole states. At 512 nodes, η = 5e-4 spreads most BCA runs'
// residue wholly below η, as the 4 096-node social fixture does at 1e-4, but
// not every run's.
func summarizedSocial(t testing.TB) (*graph.Graph, *Index, BuildStats) {
	t.Helper()
	g, err := gen.SocialGraph(512, 41)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.K = 16
	opts.HubBudget = 8
	opts.BCA.Eta = 5e-4
	opts.Workers = 2
	idx, stats, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, idx, stats
}

// summaries counts the summarized states an index stores.
func summaries(idx *Index) int {
	n := 0
	for _, st := range idx.states {
		if st != nil && st.Summarized() {
			n++
		}
	}
	return n
}

// TestBuildSummarizesZeroInkStates holds every stored state to a fresh BCA run
// of its node: p̂, T, ‖r‖₁ and S are the run's, and R and W are dropped exactly
// when the run left residue with none of it at or above η; every other state
// is stored whole. BuildStats reports the summaries and the bytes they saved.
func TestBuildSummarizesZeroInkStates(t *testing.T) {
	g, idx, stats := summarizedSocial(t)
	hm, cfg := idx.HubMatrix(), idx.Options().BCA
	ws := bca.NewWorkspace(g.N())
	summarized, whole, saved := 0, 0, int64(0)
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		stored := idx.states[u]
		if hm.IsHub(u) {
			if stored != nil {
				t.Fatalf("hub %d has a state", u)
			}
			continue
		}
		fresh, err := bca.Run(g, u, hm, cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("node %d", u)
		requireFloatsEqual(t, label+" p̂", idx.phat[u], bca.TopK(fresh, hm, ws, idx.K()))
		if stored.T != fresh.T || math.Float64bits(stored.RNorm) != math.Float64bits(fresh.RNorm) {
			t.Fatalf("%s: stored T=%d ‖r‖₁=%g, fresh run T=%d ‖r‖₁=%g", label, stored.T, stored.RNorm, fresh.T, fresh.RNorm)
		}
		requireSparseEqual(t, label+" S", stored.S, fresh.S)
		if fresh.RNorm > 0 && fresh.BatchInk(cfg.Eta) == 0 {
			if !stored.Summarized() || stored.W.NNZ() != 0 {
				t.Fatalf("%s: residue %g wholly below η, yet R (%d entries) or W (%d) is stored", label, fresh.RNorm, stored.R.NNZ(), stored.W.NNZ())
			}
			summarized++
			saved += fresh.R.Bytes() + fresh.W.Bytes()
			continue
		}
		requireSparseEqual(t, label+" R", stored.R, fresh.R)
		requireSparseEqual(t, label+" W", stored.W, fresh.W)
		whole++
	}
	if summarized == 0 || whole == 0 {
		t.Fatalf("%d states summarized and %d whole: the graph no longer mixes both", summarized, whole)
	}
	if stats.Summarized != summarized || stats.SummarizedBytes != saved {
		t.Errorf("BuildStats reports %d summarized states saving %d B, want %d and %d", stats.Summarized, stats.SummarizedBytes, summarized, saved)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states summarized, %d whole; %d B of R and W not stored", summarized, whole, saved)
}

// TestSummarizedStatesRoundTrip: summaries survive Save → Load (deep
// validation) and Save → LoadFile (mmap) bit for bit, and the mapped index
// saves back to the same bytes.
func TestSummarizedStatesRoundTrip(t *testing.T) {
	_, idx, _ := summarizedSocial(t)
	path := filepath.Join(t.TempDir(), "social.idx")
	writeIndex(t, path, idx.Save)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Load(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	requireIndexEqual(t, idx, deep)
	mapped, err := LoadFile(path, LoadOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	requireIndexEqual(t, idx, mapped)
	if n := summaries(mapped); n == 0 {
		t.Fatal("the image holds no summarized state")
	}
	var resaved bytes.Buffer
	if err := mapped.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), img) {
		t.Fatal("re-save of the mapped index is not bit-identical to its file")
	}
}
