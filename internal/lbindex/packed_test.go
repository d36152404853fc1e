package lbindex_test

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/vecmath"
)

// requireSameState holds two snapshots of one node to each other bit for bit:
// T, ‖r‖₁ and R, W and S, indices and values.
func requireSameState(t *testing.T, what string, u graph.NodeID, a, b *lbindex.Index) {
	t.Helper()
	sa, sb := a.StateSnapshot(u), b.StateSnapshot(u)
	if (sa == nil) != (sb == nil) {
		t.Fatalf("%s node %d: state nil-ness differs", what, u)
	}
	if math.Float64bits(a.RoundingSlack(u)) != math.Float64bits(b.RoundingSlack(u)) {
		t.Fatalf("%s node %d: rounding slack %g, saved %g", what, u, a.RoundingSlack(u), b.RoundingSlack(u))
	}
	if sa == nil {
		return
	}
	if sa.Origin != sb.Origin || sa.T != sb.T || math.Float64bits(sa.RNorm) != math.Float64bits(sb.RNorm) {
		t.Fatalf("%s node %d: origin, T or ‖r‖₁ differs", what, u)
	}
	for _, v := range [][2]vecmath.Sparse{{sa.R, sb.R}, {sa.W, sb.W}, {sa.S, sb.S}} {
		x, y := v[0], v[1]
		if x.NNZ() != y.NNZ() {
			t.Fatalf("%s node %d: %d entries, saved %d", what, u, x.NNZ(), y.NNZ())
		}
		for i := range x.Idx {
			if x.Idx[i] != y.Idx[i] || math.Float64bits(x.Val[i]) != math.Float64bits(y.Val[i]) {
				t.Fatalf("%s node %d: entry %d is (%d, %g), saved (%d, %g)", what, u, i, x.Idx[i], x.Val[i], y.Idx[i], y.Val[i])
			}
		}
	}
}

// TestPackedSnapshotsSurviveSaveLoad: delta-packing the state indices is
// invisible to a query. For every node of the web and social fixtures,
// StateSnapshot and RoundingSlack read the same after Save and a load by the
// stream loader, the heap file loader and the mmap file loader as they do on
// the built index.
func TestPackedSnapshotsSurviveSaveLoad(t *testing.T) {
	for name, fx := range roundingFixtures(t) {
		var buf bytes.Buffer
		if err := fx.idx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".idx")
		if err := fx.idx.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		stream, err := lbindex.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		loaded := map[string]*lbindex.Index{"Load": stream}
		for mode, mmap := range map[string]bool{"LoadFile heap": false, "LoadFile mmap": true} {
			if loaded[mode], err = lbindex.LoadFile(path, lbindex.LoadOptions{Mmap: mmap}); err != nil {
				t.Fatal(err)
			}
		}
		for loader, idx := range loaded {
			for u := graph.NodeID(0); int(u) < fx.g.N(); u++ {
				requireSameState(t, name+" "+loader, u, fx.idx, idx)
			}
		}
	}
}
