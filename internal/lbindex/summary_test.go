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
	"repro/internal/vecmath"
)

// summarizedSocial builds the index of a generated social graph that mixes
// summarized and folded states. At 512 nodes, η = 5e-4 spreads some BCA runs'
// residue wholly below η, as the 4 096-node social fixture does at 1e-4, and
// leaves most runs with a few entries at or above η among many below it.
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

// aboveEta returns the entries of r at or above η, the ones the index keeps.
func aboveEta(r vecmath.Sparse, eta float64) vecmath.Sparse {
	var out vecmath.Sparse
	for i, v := range r.Val {
		if v >= eta {
			out.Idx = append(out.Idx, r.Idx[i])
			out.Val = append(out.Val, v)
		}
	}
	return out
}

// TestBuildSummarizesZeroInkStates holds every stored state to a fresh BCA run
// of its node: p̂, T, ‖r‖₁ and S are the run's, R is the run's entries at or
// above η, and W is the run's unless no such entry is left, when it is
// dropped and the state is a summary. BuildStats reports the R entries folded,
// the summaries and the bytes of R and W they saved.
func TestBuildSummarizesZeroInkStates(t *testing.T) {
	g, idx, stats := summarizedSocial(t)
	hm, cfg := idx.HubMatrix(), idx.Options().BCA
	ws := bca.NewWorkspace(g.N())
	summarized, folded, whole := 0, 0, 0
	var entries, saved int64
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
		kept := aboveEta(fresh.R, cfg.Eta)
		requireSparseEqual(t, label+" R", stored.R, kept)
		entries += int64(fresh.R.NNZ() - kept.NNZ())
		saved += fresh.R.Bytes() - kept.Bytes()
		switch {
		case fresh.RNorm > 0 && kept.NNZ() == 0:
			if !stored.Summarized() {
				t.Fatalf("%s: residue %g wholly below η, yet W (%d entries) is stored", label, fresh.RNorm, stored.W.NNZ())
			}
			summarized++
			saved += fresh.W.Bytes()
			continue
		case kept.NNZ() < fresh.R.NNZ():
			folded++
		default:
			whole++
		}
		if stored.Summarized() {
			t.Fatalf("%s: a state with batch ink %g reads as a summary", label, stored.BatchInk(cfg.Eta))
		}
		requireSparseEqual(t, label+" W", stored.W, fresh.W)
	}
	if summarized == 0 || folded == 0 {
		t.Fatalf("%d states summarized, %d folded and %d whole: the graph no longer mixes summaries and folds", summarized, folded, whole)
	}
	if stats.Folded != entries || stats.Summarized != summarized || stats.FoldedBytes != saved {
		t.Errorf("BuildStats reports %d entries folded, %d states summarized, saving %d B; want %d, %d and %d",
			stats.Folded, stats.Summarized, stats.FoldedBytes, entries, summarized, saved)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states summarized, %d folded, %d whole; %d R entries and %d B of R and W not stored", summarized, folded, whole, entries, saved)
}

// TestFoldedStateStepsAsWhole: folding changes no first refinement step. For
// every stored state a step can move, the folded copy the index holds has the
// full run's batch ink bit for bit, and one bca.Step from each leaves W′, S′
// and p̂′ bit-identical. R′ differs only where the full state held an entry
// below η — there by exactly that entry — and ‖r′‖₁ agrees within 1e-15.
func TestFoldedStateStepsAsWhole(t *testing.T) {
	g, idx, _ := summarizedSocial(t)
	hm, cfg := idx.HubMatrix(), idx.Options().BCA
	ws := bca.NewWorkspace(g.N())
	stepped, foldedStepped, lifted := 0, 0, 0
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		if hm.IsHub(u) {
			continue
		}
		full, err := bca.Run(g, u, hm, cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		ink := full.BatchInk(cfg.Eta)
		if ink == 0 {
			continue
		}
		fold := idx.StateSnapshot(u)
		label := fmt.Sprintf("node %d", u)
		if got := fold.BatchInk(cfg.Eta); math.Float64bits(got) != math.Float64bits(ink) {
			t.Fatalf("%s: folded batch ink %g, full %g", label, got, ink)
		}
		below := make(map[int32]float64)
		for i, v := range full.R.Val {
			if v < cfg.Eta {
				below[full.R.Idx[i]] = v
			}
		}
		if n, m := bca.Step(g, full, hm, cfg, ws), bca.Step(g, fold, hm, cfg, ws); n != m {
			t.Fatalf("%s: full step pushed %d nodes, folded %d", label, n, m)
		}
		stepped++
		if len(below) == 0 {
			requireSparseEqual(t, label+" R′", fold.R, full.R)
		} else {
			foldedStepped++
		}
		requireSparseEqual(t, label+" W′", fold.W, full.W)
		requireSparseEqual(t, label+" S′", fold.S, full.S)
		phat := bca.TopK(full, hm, ws, idx.K())
		requireFloatsEqual(t, label+" p̂′", bca.TopK(fold, hm, ws, idx.K()), phat)
		if d := math.Abs(fold.RNorm - full.RNorm); d > 1e-15 {
			t.Fatalf("%s: ‖r′‖₁ %g folded, %g full", label, fold.RNorm, full.RNorm)
		}
		got := make(map[int32]float64, fold.R.NNZ())
		for i, v := range fold.R.Val {
			got[fold.R.Idx[i]] = v
		}
		for i, v := range full.R.Val {
			w := full.R.Idx[i]
			b, ok := below[w]
			if !ok {
				if math.Float64bits(got[w]) != math.Float64bits(v) {
					t.Fatalf("%s: R′(%d) = %g folded, %g full, and node %d held no folded entry", label, w, got[w], v, w)
				}
				continue
			}
			if d := math.Abs(v - got[w] - b); d > 1e-15 {
				t.Fatalf("%s: R′(%d) = %g full, %g folded: not apart by the folded %g", label, w, v, got[w], b)
			}
			if v >= cfg.Eta && got[w] < cfg.Eta {
				lifted++
			}
		}
	}
	if stepped == 0 || foldedStepped == 0 {
		t.Fatalf("%d states stepped, %d of them folded: the fixture no longer folds a steppable state", stepped, foldedStepped)
	}
	t.Logf("%d steppable states, %d of them folded; %d folded entries a push lifted over η in the full step", stepped, foldedStepped, lifted)
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
