package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lbindex"
)

// TestFallbackCommitsSurviveSaveLoad: exact states committed by the
// deferred fallback resolution are fully drained (zero residue), so they
// must keep deciding by the cheap hit check not only on in-memory repeat
// queries but after a save/load round trip — the "update curve flattens"
// property of Fig. 7/8 holds across restarts.
func TestFallbackCommitsSurviveSaveLoad(t *testing.T) {
	g := randomGraph(11, 150, false)
	idx := buildIndex(t, g, 10, 2)
	eng, err := NewEngine(g, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	_, st1, err := eng.Query(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ExactFallbacks == 0 {
		t.Fatal("no fallbacks fired; pick another seed")
	}
	// in-memory repeat
	eng2, _ := NewEngine(g, idx, false)
	_, st2, err := eng2.Query(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ExactFallbacks != 0 {
		t.Errorf("in-memory repeat: %d fallbacks recurred", st2.ExactFallbacks)
	}
	// save/load repeat
	path := filepath.Join(t.TempDir(), "x.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	idx2, err := lbindex.LoadFile(path, lbindex.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng3, err := NewEngine(g, idx2, false)
	if err != nil {
		t.Fatal(err)
	}
	_, st3, err := eng3.Query(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ExactFallbacks != 0 {
		t.Errorf("save/load repeat: %d fallbacks recurred", st3.ExactFallbacks)
	}
}
