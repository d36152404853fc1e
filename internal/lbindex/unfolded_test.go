package lbindex_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbindex"
)

// TestUnfoldedIndexAnswersAsFolded: an index file whose states keep their R
// entries below η — every state whole but the zero-ink summaries — loads
// through both loaders, the deep one's invariant check included, and answers
// every (q, k) of a small family exactly as its folded rebuild does.
func TestUnfoldedIndexAnswersAsFolded(t *testing.T) {
	g, folded, _ := lbindex.SummarizedSocial(t)
	unfolded, err := lbindex.BuildUnfolded(g, folded.Options())
	if err != nil {
		t.Fatal(err)
	}
	if unfolded.SizeBytes() <= folded.SizeBytes() {
		t.Fatalf("the unfolded index (%d B) is no larger than the folded one (%d B): nothing was folded", unfolded.SizeBytes(), folded.SizeBytes())
	}
	path := filepath.Join(t.TempDir(), "unfolded.idx")
	if err := unfolded.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := core.NewEngine(g, folded, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		loaded, err := lbindex.LoadFile(path, lbindex.LoadOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("mmap=%t: %v", mmap, err)
		}
		eng, err := core.NewEngine(g, loaded, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, folded.K()} {
			for q := graph.NodeID(0); int(q) < g.N(); q += 41 {
				a, _, err := want.Query(q, k)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := eng.Query(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("mmap=%t q=%d k=%d: unfolded index answers %v, folded %v", mmap, q, k, b, a)
				}
			}
		}
	}
}
