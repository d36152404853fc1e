package vecmath

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// packedRows are the hand-picked rows of the codec tests, each with the n it
// lives in: the empty row, id 0 alone, id n−1 alone, a run of one-byte gaps,
// gaps at each varint length boundary, and the largest gap two int32 ids can
// have, 2³¹−2, between 0 and 2³¹−1.
var packedRows = []struct {
	n   int
	idx []int32
}{
	{1, nil},
	{1, []int32{0}},
	{1 << 20, []int32{1<<20 - 1}},
	{100, []int32{0, 1, 2, 3, 50, 99}},
	{1 << 22, []int32{127, 255, 256 + 128*128, 1 << 21, 1<<22 - 1}},
	{math.MaxInt32 + 1, []int32{0, math.MaxInt32}},
	{math.MaxInt32 + 1, []int32{math.MaxInt32 - 1, math.MaxInt32}},
}

// requireRoundTrip packs idx (with arbitrary values), checks the row
// validates in n, and that NNZ, Ids, Widen, L1 and Bytes read back exactly
// what was packed.
func requireRoundTrip(t *testing.T, n int, idx []int32) {
	t.Helper()
	s := Sparse32{Idx: idx, Val: make([]float32, len(idx))}
	for i := range s.Val {
		s.Val[i] = float32(i) + 0.5
	}
	p := Pack32(s)
	if cap(p.Idx) != len(p.Idx) {
		t.Fatalf("row %v: packed into %d bytes of a %d-byte buffer", idx, len(p.Idx), cap(p.Idx))
	}
	if err := p.Validate(n); err != nil {
		t.Fatalf("row %v in n=%d: %v", idx, n, err)
	}
	if p.NNZ() != len(idx) || p.L1() != s.L1() {
		t.Fatalf("row %v: NNZ %d, L1 %g; want %d, %g", idx, p.NNZ(), p.L1(), len(idx), s.L1())
	}
	w := p.Widen()
	if !slices.Equal(w.Idx, idx) {
		t.Fatalf("row %v widened to indices %v", idx, w.Idx)
	}
	for i, v := range w.Val {
		if v != float64(s.Val[i]) {
			t.Fatalf("row %v: value %d widened to %g, want %g", idx, i, v, s.Val[i])
		}
	}
	var got []int32
	for i, id := range p.Ids() {
		if i != len(got) {
			t.Fatalf("row %v: Ids yields position %d after %d entries", idx, i, len(got))
		}
		got = append(got, id)
	}
	if !slices.Equal(got, idx) {
		t.Fatalf("row %v: Ids yields %v", idx, got)
	}
	if want := int64(len(p.Idx)) + 4*int64(len(idx)); p.Bytes() != want {
		t.Fatalf("row %v: Bytes %d, want %d", idx, p.Bytes(), want)
	}
	if n < math.MaxInt32 && len(idx) > 0 {
		if err := p.Validate(int(idx[len(idx)-1])); err == nil {
			t.Fatalf("row %v validated in n=%d, below its last index", idx, idx[len(idx)-1])
		}
	}
}

// TestPacked32RoundTrip: every strictly ascending row in [0, n) packs to a
// row that validates and decodes to itself — the hand-picked rows, and random
// rows of dense, sparse and mixed gaps.
func TestPacked32RoundTrip(t *testing.T) {
	for _, r := range packedRows {
		requireRoundTrip(t, r.n, r.idx)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(1<<(1+rng.Intn(30)))
		var idx []int32
		for id := rng.Intn(n); id < n && len(idx) < 300; id += 1 + rng.Intn(1+rng.Intn(n)) {
			idx = append(idx, int32(id))
		}
		requireRoundTrip(t, n, idx)
	}
}

// TestPacked32Encoding pins the encoding: the first index, then each gap
// minus one, as minimal unsigned LEB128.
func TestPacked32Encoding(t *testing.T) {
	for _, tc := range []struct {
		idx  []int32
		want []byte
	}{
		{nil, nil},
		{[]int32{0}, []byte{0x00}},
		{[]int32{0, 1, 2}, []byte{0x00, 0x00, 0x00}},
		{[]int32{5, 7, 135}, []byte{0x05, 0x01, 0x7f}},
		{[]int32{128, 257}, []byte{0x80, 0x01, 0x80, 0x01}},
		{[]int32{0, math.MaxInt32}, []byte{0x00, 0xfe, 0xff, 0xff, 0xff, 0x07}},
	} {
		if got := Pack32(Sparse32{Idx: tc.idx, Val: make([]float32, len(tc.idx))}).Idx; !bytes.Equal(got, tc.want) {
			t.Errorf("Pack32(%v) = % x, want % x", tc.idx, got, tc.want)
		}
	}
}

// TestPacked32ValidateRefuses: each malformed row is refused.
func TestPacked32ValidateRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		idx  []byte
		nval int
		n    int
	}{
		{"ends mid-varint", []byte{0x00, 0x80}, 2, 10},
		{"non-minimal varint", []byte{0x81, 0x00}, 1, 10},
		{"six-byte varint", []byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x00}, 1, math.MaxInt32},
		{"index at n", []byte{0x03, 0x05}, 2, 9},
		{"index past int32", []byte{0x80, 0x80, 0x80, 0x80, 0x08}, 1, math.MaxInt32 + 1},
		{"sum past int32", []byte{0xff, 0xff, 0xff, 0xff, 0x07, 0x00}, 2, math.MaxInt32 + 1},
		{"more indices than values", []byte{0x00, 0x00}, 1, 10},
		{"fewer indices than values", []byte{0x00}, 2, 10},
	} {
		p := Packed32{Idx: tc.idx, Val: make([]float32, tc.nval)}
		if err := p.Validate(tc.n); err == nil {
			t.Errorf("%s: Validate accepted % x", tc.name, tc.idx)
		}
	}
}

// FuzzPacked32 feeds arbitrary bytes to Validate: they either form a valid
// row — strictly ascending indices in [0, n) that Pack32 encodes back to the
// same bytes — or are refused, and never panic.
func FuzzPacked32(f *testing.F) {
	for _, r := range packedRows {
		p := Pack32(Sparse32{Idx: r.idx})
		f.Add(p.Idx, uint32(len(r.idx)), uint32(r.n-1))
	}
	f.Add([]byte{0x80}, uint32(1), uint32(10))
	f.Add([]byte{0x81, 0x00}, uint32(1), uint32(10))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint32(1), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, idx []byte, nval, nm1 uint32) {
		if nval > 1<<16 {
			return
		}
		n := int(nm1) + 1
		p := Packed32{Idx: idx, Val: make([]float32, nval)}
		if err := p.Validate(n); err != nil {
			return
		}
		w := p.Widen()
		prev := int64(-1)
		for _, id := range w.Idx {
			if int64(id) <= prev || int(id) >= n {
				t.Fatalf("valid row % x in n=%d decodes to %v", idx, n, w.Idx)
			}
			prev = int64(id)
		}
		if back := Pack32(Sparse32{Idx: w.Idx}).Idx; !bytes.Equal(back, idx) {
			t.Fatalf("valid row % x re-encodes as % x", idx, back)
		}
	})
}
