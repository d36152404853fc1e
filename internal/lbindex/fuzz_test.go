package lbindex

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// Two format v1 images, as the retired writer laid them out: the magic
// alone, and the magic followed by a plausible header claiming n = 2^30
// (n u64, K u32 = 200, hub budget u32 = 100, hub scheme u8, greedy seed
// i64, ω = 1e-6, BCA α η δ and iteration cap, RWR α ε and iteration cap).
// Load and LoadFile must refuse both by name without reading past the magic.
var v1Images = []struct {
	name string
	img  []byte
}{
	{"magic alone", []byte("RTKLBIX1")},
	{"magic and header", []byte("RTKLBIX1" +
		"\x00\x00\x00\x40\x00\x00\x00\x00" + "\xc8\x00\x00\x00" + "\x64\x00\x00\x00" + "\x00" +
		"\x01\x00\x00\x00\x00\x00\x00\x00" + "\x8d\xed\xb5\xa0\xf7\xc6\xb0\x3e" +
		"\x33\x33\x33\x33\x33\x33\xc3\x3f" + "\x2d\x43\x1c\xeb\xe2\x36\x1a\x3f" + "\x9a\x99\x99\x99\x99\x99\xb9\x3f" + "\x64\x00\x00\x00" +
		"\x33\x33\x33\x33\x33\x33\xc3\x3f" + "\xbb\xbd\xd7\xd9\xdf\x7c\xdb\x3d" + "\x64\x00\x00\x00")},
}

// v2Images are two format v2 images: the magic alone, and a whole image under
// it (a v3 image of the fuzz seed's index with its magic set back, the
// section layout being v2's). Load and LoadFile must refuse both by name.
func v2Images(v3 []byte) []struct {
	name string
	img  []byte
} {
	whole := append([]byte(indexMagicV2), v3[len(indexMagicV2):]...)
	return []struct {
		name string
		img  []byte
	}{{"magic alone", []byte(indexMagicV2)}, {"whole image", whole}}
}

// requireRefusedV2 checks that both loaders, the mmap one included, refuse a
// format v2 image with ErrFormatV2.
func requireRefusedV2(t *testing.T, img []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v2.idx")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errStream := Load(bytes.NewReader(img))
	_, errHeap := LoadFile(path, LoadOptions{Mmap: false})
	_, errMmap := LoadFile(path, LoadOptions{Mmap: true})
	for loader, err := range map[string]error{"Load": errStream, "LoadFile heap": errHeap, "LoadFile mmap": errMmap} {
		if !errors.Is(err, ErrFormatV2) {
			t.Fatalf("%s: got %v, want ErrFormatV2", loader, err)
		}
	}
}

// FuzzLoadV2 fuzzes the loaders of format v3 — the v2 section layout with
// float32 sparse values. It feeds arbitrary bytes (seeded with a valid v3
// image, truncated prefixes, flips, inflated size/length fields and the
// refused v1 and v2 images) into the deserializer: they must load as a valid
// index or fail with an error in BOTH the deep loader and the
// mmap-structural parser — never panic, never hang, never yield an index
// violating its invariants — and an input under the v2 magic must be refused
// with ErrFormatV2 by both loaders.
func FuzzLoadV2(f *testing.F) {
	g := randomGraph(3, 40)
	idx, _, err := Build(g, testOptions(4))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(indexMagicV3))
	for _, cut := range []int{
		16, 31, 32, v2HeaderEnd - 1, v2HeaderEnd,
		len(valid) / 4, len(valid) / 2, 3 * len(valid) / 4, len(valid) - 9, len(valid) - 1,
	} {
		if cut > 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	// Flips across the preamble, section table, and every section's span,
	// plus size/offset/length-field inflation (the allocation-bomb shape).
	for _, pos := range []int{8, 16, 20, 24, 40, 44, 48, 56, v2HeaderEnd, v2HeaderEnd + 64, len(valid) / 3, len(valid) / 2, len(valid) - 9} {
		if pos < len(valid) {
			c := append([]byte(nil), valid...)
			c[pos] ^= 0xFF
			f.Add(c)
		}
	}
	for _, pos := range []int{8, 40, 48, 56, 64} {
		if pos+8 <= len(valid) {
			c := append([]byte(nil), valid...)
			for i := 0; i < 7; i++ {
				c[pos+i] = 0xFF
			}
			f.Add(c)
		}
	}
	for _, v1 := range v1Images {
		f.Add(v1.img)
	}
	for _, v2 := range v2Images(valid) {
		f.Add(v2.img)
	}
	// And an image holding summarized states: at η = 0.01 nearly every run on
	// this graph stops with its residue spread below η.
	sopts := testOptions(4)
	sopts.BCA.Eta = 0.01
	sidx, _, err := Build(g, sopts)
	if err != nil {
		f.Fatal(err)
	}
	if summaries(sidx) == 0 {
		f.Fatal("the summarized seed image holds no summary")
	}
	var sbuf bytes.Buffer
	if err := sidx.Save(&sbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(sbuf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.HasPrefix(data, []byte(indexMagicV2)) {
			requireRefusedV2(t, data)
			return
		}
		if idx, err := Load(bytes.NewReader(data)); err == nil {
			if err := idx.CheckInvariants(); err != nil {
				t.Fatalf("deep Load accepted an index that fails invariants: %v", err)
			}
		}
		if len(data) >= v2HeaderEnd {
			// The structural parser (the mmap path) must never panic either;
			// it may accept semantically-odd values, but only behind a valid
			// checksum, which fuzzed mutations essentially never produce.
			aligned := alignedBytes(len(data))
			copy(aligned, data)
			_, _ = parseV2(aligned, false)
		}
	})
}

// corruptIndex builds a small index, applies mutate to its in-memory form,
// saves it, and returns the serialized image of the corrupted index.
func corruptIndex(t *testing.T, mutate func(idx *Index, stateNode int)) []byte {
	t.Helper()
	g := randomGraph(7, 30)
	idx, _, err := Build(g, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	// Find a non-hub node whose state parks ink at a hub (S non-empty).
	stateNode := -1
	for u := range idx.states {
		if idx.states[u] != nil && idx.states[u].S.NNZ() > 0 {
			stateNode = u
			break
		}
	}
	if stateNode < 0 {
		t.Fatal("no node with hub-parked ink; enlarge the test graph")
	}
	mutate(idx, stateNode)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsCorruptPayloads writes deliberately inconsistent indexes
// and asserts Load refuses each: these are exactly the corruptions that
// used to surface as panics deep inside query processing (out-of-range
// scatter, dropped-mass lookup of a non-hub, NaN in the bound staircase).
func TestLoadRejectsCorruptPayloads(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(idx *Index, stateNode int)
	}{
		{"state S parks ink at a non-hub", func(idx *Index, u int) {
			// Redirect the hub ink to a node that is not a hub: DroppedMass
			// would index pos[-1] at query time.
			for v := int32(0); int(v) < idx.n; v++ {
				if idx.states[int(v)] != nil && v > idx.states[u].S.Idx[idx.states[u].S.NNZ()-1] {
					idx.states[u].S.Idx[idx.states[u].S.NNZ()-1] = v
					return
				}
			}
			panic("no replacement node found")
		}},
		{"state R index out of range", func(idx *Index, u int) {
			if idx.states[u].R.NNZ() == 0 {
				idx.states[u].R.Idx = append(idx.states[u].R.Idx, int32(idx.n+5))
				idx.states[u].R.Val = append(idx.states[u].R.Val, 0)
			} else {
				idx.states[u].R.Idx[idx.states[u].R.NNZ()-1] = int32(idx.n + 5)
			}
		}},
		{"negative ink value", func(idx *Index, u int) {
			idx.states[u].S.Val[0] = -idx.states[u].S.Val[0]
		}},
		{"infinite hub column value", func(idx *Index, u int) {
			_, _, cols, _, _, _ := idx.hubs.Parts()
			cols[0].Val[0] = float32(math.Inf(1))
		}},
		{"NaN in phat column", func(idx *Index, u int) {
			idx.phat[u][0] = math.NaN()
		}},
		{"phat above proximity range", func(idx *Index, u int) {
			idx.phat[u][0] = 2.5
		}},
		{"residue norm below the stored R", func(idx *Index, u int) {
			// Half the residue moved to W: ink is conserved, but R holds
			// more than ‖r‖₁.
			st := idx.states[u]
			st.W.Val[0] += float32(st.RNorm / 2)
			st.RNorm /= 2
		}},
		{"folded state whose ink is not conserved", func(idx *Index, u int) {
			st := idx.states[u]
			st.R, st.RNorm = vecmath.Sparse32{}, st.RNorm+1e-3
		}},
		{"summarized state holding more than the unit of ink", func(idx *Index, u int) {
			st := idx.states[u]
			st.R, st.W = vecmath.Sparse32{}, vecmath.Sparse32{}
			st.RNorm = 1 - st.S.L1()/2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := corruptIndex(t, tc.mutate)
			if _, err := Load(bytes.NewReader(img)); err == nil {
				t.Fatal("Load accepted a corrupt image")
			} else {
				t.Logf("rejected as expected: %v", err)
			}
		})
	}
	// A format v2 image — the layout of v3, its values float64 — is refused
	// by name on both loaders.
	for _, v2 := range v2Images(corruptIndex(t, func(*Index, int) {})) {
		t.Run("format v2 "+v2.name, func(t *testing.T) { requireRefusedV2(t, v2.img) })
	}
	// A format v1 image is refused by name on every path, and before its
	// header's claimed n can size anything.
	for _, v1 := range v1Images {
		t.Run("format v1 "+v1.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "v1.idx")
			if err := os.WriteFile(path, v1.img, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, errStream := Load(bytes.NewReader(v1.img))
			_, errHeap := LoadFile(path, LoadOptions{Mmap: false})
			_, errMmap := LoadFile(path, LoadOptions{Mmap: true})
			runtime.ReadMemStats(&after)
			for loader, err := range map[string]error{"Load": errStream, "LoadFile heap": errHeap, "LoadFile mmap": errMmap} {
				if !errors.Is(err, ErrFormatV1) {
					t.Errorf("%s: got %v, want ErrFormatV1", loader, err)
				}
			}
			if !strings.Contains(errMmap.Error(), path) {
				t.Errorf("LoadFile error %q does not name the file", errMmap)
			}
			// Load's buffered reader is 1 MB; a make sized by n = 2^30
			// would be gigabytes.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Errorf("refusing a v1 image allocated %d bytes", grew)
			}
		})
	}
}
