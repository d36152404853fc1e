package lbindex

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
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

// keptR returns the entries of r the index keeps: those whose float32 value,
// rounded toward zero, is at or above η.
func keptR(r vecmath.Sparse, eta float64) vecmath.Sparse32 {
	var out vecmath.Sparse32
	for i, v := range r.Val {
		if f := vecmath.RoundDown32(v); float64(f) >= eta {
			out.Idx = append(out.Idx, r.Idx[i])
			out.Val = append(out.Val, f)
		}
	}
	return out
}

// packSaving returns the bytes a row's indices save as gap varints over
// int32s: 4 per index, less 1 per started 7 bits of each gap.
func packSaving(idx []int32) int64 {
	var saving int64
	prev := int32(-1)
	for _, i := range idx {
		saving += 4 - int64(1+(bits.Len32(uint32(i-prev-1))-1)/7)
		prev = i
	}
	return saving
}

// TestBuildSummarizesZeroInkStates holds every stored state to a fresh BCA run
// of its node: p̂ and T are the run's, and S, R and W its values rounded
// toward zero to float32 — R only the entries whose value is then at or above
// η, and W dropped when no such entry is left, the state a summary. ‖r‖₁ is
// the run's plus the mass rounding took off S and, unless the state is left
// drained or is a summary, W. BuildStats reports the R entries folded, the summaries, the
// bytes of R and W they saved, the bytes float32 values save and the bytes the
// states' indices save as gap varints.
func TestBuildSummarizesZeroInkStates(t *testing.T) {
	g, idx, stats := summarizedSocial(t)
	hm, cfg := idx.HubMatrix(), idx.Options().BCA
	ws := bca.NewWorkspace(g.N())
	summarized, folded, whole := 0, 0, 0
	var entries, saved, packed int64
	values := int64(hm.NNZ())
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
		s, lostS := vecmath.Round32(fresh.S)
		w, lostW := vecmath.Round32(fresh.W)
		kept := keptR(fresh.R, cfg.Eta)
		rnorm := fresh.RNorm + lostS
		summary := rnorm > 0 && kept.NNZ() == 0
		if rnorm > 0 && !summary {
			rnorm += lostW
		}
		if stored.T != fresh.T || math.Float64bits(stored.RNorm) != math.Float64bits(rnorm) {
			t.Fatalf("%s: stored T=%d ‖r‖₁=%g, fresh run T=%d ‖r‖₁=%g with the rounding loss folded", label, stored.T, stored.RNorm, fresh.T, rnorm)
		}
		requirePackedEqual(t, label+" S", stored.S, s)
		requirePackedEqual(t, label+" R", stored.R, kept)
		values += int64(s.NNZ() + kept.NNZ())
		packed += packSaving(s.Idx) + packSaving(kept.Idx)
		entries += int64(fresh.R.NNZ() - kept.NNZ())
		saved += 12 * int64(fresh.R.NNZ()-kept.NNZ())
		switch {
		case summary:
			if !stored.Summarized() {
				t.Fatalf("%s: residue %g wholly below η, yet W (%d entries) is stored", label, rnorm, stored.W.NNZ())
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
			t.Fatalf("%s: a state with %d R entries at or above η reads as a summary", label, kept.NNZ())
		}
		requirePackedEqual(t, label+" W", stored.W, w)
		values += int64(w.NNZ())
		packed += packSaving(w.Idx)
	}
	if summarized == 0 || folded == 0 {
		t.Fatalf("%d states summarized, %d folded and %d whole: the graph no longer mixes summaries and folds", summarized, folded, whole)
	}
	if stats.Folded != entries || stats.Summarized != summarized || stats.FoldedBytes != saved || stats.RoundedBytes != 4*values || stats.PackedBytes != packed {
		t.Errorf("BuildStats reports %d entries folded, %d states summarized, saving %d B, float32 values saving %d B and packed indices %d B; want %d, %d, %d, %d and %d",
			stats.Folded, stats.Summarized, stats.FoldedBytes, stats.RoundedBytes, stats.PackedBytes, entries, summarized, saved, 4*values, packed)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states summarized, %d folded, %d whole; %d R entries and %d B of R and W not stored; %d values stored as float32", summarized, folded, whole, entries, saved, values)
}

// TestFoldedStateStepsAsWhole: folding changes no first refinement step. For
// every stored state a step can move, the folded copy the index holds has the
// batch ink of the full run stored whole — every value rounded as the index
// rounds it, and ‖r‖₁ the stored one — bit for bit, and one bca.Step from each
// leaves W′, S′ and p̂′ bit-identical. R′ differs only where the whole state
// held an entry below η — there by exactly that entry — and ‖r′‖₁ agrees
// within 1e-15.
func TestFoldedStateStepsAsWhole(t *testing.T) {
	g, idx, _ := summarizedSocial(t)
	hm, cfg := idx.HubMatrix(), idx.Options().BCA
	ws := bca.NewWorkspace(g.N())
	stepped, foldedStepped, lifted := 0, 0, 0
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		if hm.IsHub(u) {
			continue
		}
		run, err := bca.Run(g, u, hm, cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		fold := idx.StateSnapshot(u)
		r, _ := vecmath.Round32(run.R)
		w, _ := vecmath.Round32(run.W)
		s, _ := vecmath.Round32(run.S)
		full := &bca.State{Origin: u, T: run.T, RNorm: fold.RNorm, R: r.Widen(), W: w.Widen(), S: s.Widen()}
		ink := full.BatchInk(cfg.Eta)
		if ink == 0 {
			continue
		}
		label := fmt.Sprintf("node %d", u)
		if got := fold.BatchInk(cfg.Eta); math.Float64bits(got) != math.Float64bits(ink) {
			t.Fatalf("%s: folded batch ink %g, full %g", label, got, ink)
		}
		if got, _ := idx.BatchInk(u, cfg.Eta); math.Float64bits(got) != math.Float64bits(ink) {
			t.Fatalf("%s: stored batch ink %g, full %g", label, got, ink)
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
