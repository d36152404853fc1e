package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// codecGraphs are the shapes the stored form must carry: unweighted and
// weighted builds, a graph grown and edited by Apply, a row of degree
// above 127 (a two-byte degree) and gaps above 127 (two-byte targets).
func codecGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	wide := NewBuilder(300)
	for v := NodeID(0); v < 300; v += 2 {
		wide.AddEdge(0, v)
	}
	wide.AddEdge(1, 299)
	wideG, _, err := wide.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	plain := applyTestGraph(t, 60, 1, false)
	return map[string]*Graph{
		"unweighted": plain,
		"weighted":   applyTestGraph(t, 60, 2, true),
		"applied": mustApply(t, plain, []EdgeEdit{
			{From: 0, To: 61}, {From: 3, To: 1, Weight: 2.5}, {From: 5, To: plain.OutNeighbors(5)[0], Remove: true},
		}),
		"wide": wideG,
	}
}

// TestCodecRoundTrip: every graph decodes to itself, field for field, and
// re-encodes to the bytes it was decoded from.
func TestCodecRoundTrip(t *testing.T) {
	for name, g := range codecGraphs(t) {
		t.Run(name, func(t *testing.T) {
			l := g.Encode()
			if (len(l.Weights) == 0) == g.Weighted() {
				t.Fatalf("weighted=%v but the weight section holds %d bytes", g.Weighted(), len(l.Weights))
			}
			got, err := Decode(g.N(), l)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, g) {
				t.Fatal("decoded graph differs from the encoded one")
			}
			if !got.Equal(g) || got.Digest() != g.Digest() {
				t.Fatal("decoded graph is not Equal to the encoded one")
			}
			if again := got.Encode(); !reflect.DeepEqual(again, l) {
				t.Fatal("re-encoding changed the bytes")
			}
		})
	}
}

// TestEqualAndDigestSeeOneWeight: two graphs that differ in one edge's
// weight, with equal out-lists, are neither Equal nor of one digest.
func TestEqualAndDigestSeeOneWeight(t *testing.T) {
	g := applyTestGraph(t, 40, 3, true)
	u := NodeID(7)
	v := g.OutNeighbors(u)[0]
	h := mustApply(t, g, []EdgeEdit{{From: u, To: v, Remove: true}, {From: u, To: v, Weight: g.EdgeWeight(u, v) + 1}})
	if g.Equal(h) || h.Equal(g) || g.Digest() == h.Digest() {
		t.Fatal("a changed weight went unseen")
	}
	if !g.Equal(g) {
		t.Fatal("a graph is not Equal to itself")
	}
}

// TestDecodeRefuses: every malformed encoding is refused with its reason.
func TestDecodeRefuses(t *testing.T) {
	g := applyTestGraph(t, 20, 4, false)
	w := applyTestGraph(t, 20, 5, true)
	cases := []struct {
		name string
		n    int
		l    func() OutLists
		want string
	}{
		{"too few degree bytes", g.N() + 1, g.Encode, "too few for 21 rows"},
		{"empty row", 2, func() OutLists { return OutLists{Degrees: []byte{1, 0}, Targets: []byte{0}} }, "row 1 has no out-edges"},
		{"degree above n", 2, func() OutLists { return OutLists{Degrees: []byte{3, 1}, Targets: []byte{0, 0, 0, 0}} }, "claims 3 out-edges"},
		{"non-minimal degree", 1, func() OutLists { return OutLists{Degrees: []byte{0x81, 0x00}, Targets: []byte{0}} }, "not a complete minimal varint"},
		{"degree ends mid-varint", 1, func() OutLists { return OutLists{Degrees: []byte{0x81}, Targets: []byte{0}} }, "not a complete minimal varint"},
		{"trailing degree bytes", 1, func() OutLists { return OutLists{Degrees: []byte{1, 1}, Targets: []byte{0}} }, "after its 1 rows"},
		{"edge count past the target bytes", 3, func() OutLists { return OutLists{Degrees: []byte{3, 3, 3}, Targets: []byte{0, 0, 0}} }, "too few for 9 edges"},
		{"target at n", 2, func() OutLists { return OutLists{Degrees: []byte{1, 1}, Targets: []byte{2, 0}} }, "at or past n = 2"},
		{"targets not ascending past n", 2, func() OutLists { return OutLists{Degrees: []byte{2, 1}, Targets: []byte{1, 0, 0}} }, "at or past n = 2"},
		{"non-minimal target", 2, func() OutLists { return OutLists{Degrees: []byte{1, 1}, Targets: []byte{0x80, 0x00, 0}} }, "target 0 of row 0"},
		{"target varint past five bytes", 1, func() OutLists {
			return OutLists{Degrees: []byte{1}, Targets: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}}
		}, "not a complete minimal varint"},
		{"trailing target bytes", 1, func() OutLists { return OutLists{Degrees: []byte{1}, Targets: []byte{0, 0}} }, "after its 1 edges"},
		{"weight section of the wrong length", w.N(), func() OutLists { l := w.Encode(); l.Weights = l.Weights[8:]; return l }, "want 0 or"},
		{"infinite weight", w.N(), func() OutLists { return setWeight(w.Encode(), math.Inf(1)) }, "not a finite value"},
		{"NaN weight", w.N(), func() OutLists { return setWeight(w.Encode(), math.NaN()) }, "not a finite value"},
		{"subnormal weight", w.N(), func() OutLists { return setWeight(w.Encode(), MinNormalWeight/2) }, "not a finite value"},
		{"negative weight", w.N(), func() OutLists { return setWeight(w.Encode(), -1) }, "not a finite value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.n, tc.l()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// setWeight returns l with its first weight set to w.
func setWeight(l OutLists, w float64) OutLists {
	l.Weights = append([]byte(nil), l.Weights...)
	binary.LittleEndian.PutUint64(l.Weights, math.Float64bits(w))
	return l
}

// FuzzDecode throws arbitrary sections at the decoder: it must never panic,
// every graph it accepts must pass Validate, and the graph must re-encode to
// the bytes it was decoded from.
func FuzzDecode(f *testing.F) {
	for _, g := range []*Graph{applyTestGraph(f, 12, 6, false), applyTestGraph(f, 12, 7, true)} {
		l := g.Encode()
		f.Add(uint16(g.N()), l.Degrees, l.Targets, l.Weights)
		flipped := append([]byte(nil), l.Targets...)
		flipped[len(flipped)/2] ^= 0x81
		f.Add(uint16(g.N()), l.Degrees, flipped, l.Weights)
		f.Add(uint16(g.N()+1), l.Degrees, l.Targets, l.Weights)
	}
	f.Add(uint16(1), []byte{1}, []byte{0}, []byte{})
	f.Add(uint16(2), []byte{0xff, 0xff, 0xff, 0xff, 0x07}, []byte{0}, []byte{})
	f.Fuzz(func(t *testing.T, n uint16, deg, tgt, w []byte) {
		l := OutLists{Degrees: deg, Targets: tgt, Weights: w}
		g, err := Decode(int(n), l)
		if err != nil {
			return
		}
		if g.N() > 0 {
			if err := g.Validate(); err != nil {
				t.Fatalf("Decode accepted an invalid graph: %v", err)
			}
		}
		again := g.Encode()
		if !bytes.Equal(again.Degrees, deg) || !bytes.Equal(again.Targets, tgt) || !bytes.Equal(again.Weights, w) {
			t.Fatal("an accepted encoding does not re-encode to its own bytes")
		}
	})
}
