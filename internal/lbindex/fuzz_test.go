package lbindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/partition"
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

// retiredImages are two images of a retired format: its magic alone, and a
// whole image under it (a v4 image with its magic set back; v2 and v3 shared
// v4's section container). Load and LoadFile must refuse both by name.
func retiredImages(magic string, v4 []byte) []struct {
	name string
	img  []byte
} {
	whole := append([]byte(magic), v4[len(magic):]...)
	return []struct {
		name string
		img  []byte
	}{{"magic alone", []byte(magic)}, {"whole image", whole}}
}

// retired lists the retired formats that share v4's container, with the
// error that refuses each.
var retired = []struct {
	version, magic string
	err            error
}{{"v2", indexMagicV2, ErrFormatV2}, {"v3", indexMagicV3, ErrFormatV3}}

// retiredErr returns the error refusing data's retired magic, or nil.
func retiredErr(data []byte) error {
	for _, r := range retired {
		if bytes.HasPrefix(data, []byte(r.magic)) {
			return r.err
		}
	}
	return nil
}

// requireRefused checks that every loader, the mmap one included, refuses
// img with want, and that LoadFile names the file exactly once.
func requireRefused(t *testing.T, img []byte, want error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "retired.idx")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errStream := Load(bytes.NewReader(img))
	_, errHeap := LoadFile(path, LoadOptions{Mmap: false})
	_, errMmap := LoadFile(path, LoadOptions{Mmap: true})
	for loader, err := range map[string]error{"Load": errStream, "LoadFile heap": errHeap, "LoadFile mmap": errMmap} {
		if !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", loader, err, want)
		}
		if got := strings.Count(err.Error(), path); loader != "Load" && got != 1 {
			t.Fatalf("%s: error names %s %d times: %v", loader, path, got, err)
		}
	}
}

// TestLoadFileNamesPath: every LoadFile error names the file once, on both
// paths — a checksum mismatch and a bad section count as much as a refused
// format — and a missing file's error is the os one, which names it itself.
// No load error speaks of format v2.
func TestLoadFileNamesPath(t *testing.T) {
	g := randomGraph(3, 40)
	idx, _, err := Build(g, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40
	sections := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(sections[16:20], v2NumSections+2)
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
		img        []byte
	}{{"corrupt", "checksum mismatch", corrupt}, {"sections", "index image has 24 sections", sections}} {
		path := filepath.Join(dir, tc.name+".idx")
		if err := os.WriteFile(path, tc.img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			_, err := LoadFile(path, LoadOptions{Mmap: mmap})
			if err == nil || strings.Count(err.Error(), path) != 1 || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "v2") {
				t.Errorf("%s mmap=%v: got %v, want one %s and %q, no v2", tc.name, mmap, err, path, tc.want)
			}
		}
	}
	missing := filepath.Join(dir, "missing.idx")
	if _, err := LoadFile(missing, LoadOptions{}); !errors.Is(err, os.ErrNotExist) || strings.Count(err.Error(), missing) != 1 {
		t.Errorf("missing file: got %v", err)
	}
}

// FuzzLoadV2 fuzzes the loaders of format v4 — the v2 section layout with
// float32 sparse values and delta-packed state indices. It feeds arbitrary
// bytes (seeded with valid v4 images, truncated prefixes, flips, inflated
// size/length fields and the refused v1, v2 and v3 images) into the
// deserializer: they must load as a valid index or fail with an error in BOTH
// the deep loader and the mmap-structural parser — never panic, never hang,
// never yield an index violating its invariants — and an input under the v2
// or v3 magic must be refused with ErrFormatV2 or ErrFormatV3 by every loader.
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
	f.Add([]byte(indexMagicV4))
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
	for _, r := range retired {
		for _, img := range retiredImages(r.magic, valid) {
			f.Add(img.img)
		}
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
		if err := retiredErr(data); err != nil {
			requireRefused(t, data, err)
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

// setLastIdx re-encodes row p with its last index replaced by v. An empty
// row gains the entry (v, 0).
func setLastIdx(p *vecmath.Packed32, v int32) {
	s := vecmath.Sparse32{Idx: p.Widen().Idx, Val: append([]float32(nil), p.Val...)}
	if len(s.Idx) == 0 {
		s.Idx, s.Val = []int32{0}, []float32{0}
	}
	s.Idx[len(s.Idx)-1] = v
	*p = vecmath.Pack32(s)
}

// sectionAt returns the payload of section id in a full image.
func sectionAt(img []byte, id int) []byte {
	e := img[v2PreambleSize+id*v2TableEntry:]
	off, ln := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
	return img[off : off+ln]
}

// reseal recomputes img's section, table and file checksums after a test
// patched its payload in place, so the loaders get past them to the
// structural checks.
func reseal(img []byte) {
	nsec := int(binary.LittleEndian.Uint32(img[16:20]))
	for s := 0; s < nsec; s++ {
		e := img[v2PreambleSize+s*v2TableEntry:]
		off, ln := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(img[off:off+ln], castagnoli))
	}
	binary.LittleEndian.PutUint32(img[20:], crc32.Checksum(img[v2PreambleSize:v2HeaderEndOf(nsec)], castagnoli))
	binary.LittleEndian.PutUint32(img[24:], crc32.Update(crc32.Checksum(img[:24], castagnoli), castagnoli, img[28:]))
}

// TestLoadRejectsCorruptPayloads writes deliberately inconsistent indexes
// and asserts Load refuses each: these are exactly the corruptions that
// used to surface as panics deep inside query processing (out-of-range
// scatter, dropped-mass lookup of a non-hub, NaN in the bound staircase).
// A structural corruption — of a row's indices or of an offset table — must
// be refused by the mmap loader too, which skips only the value checks. A
// case with a patch edits the saved image's bytes and reseals its checksums.
func TestLoadRejectsCorruptPayloads(t *testing.T) {
	cases := []struct {
		name       string
		structural bool
		mutate     func(idx *Index, stateNode int)
		patch      func(img []byte)
	}{
		{"state S parks ink at a non-hub", true, func(idx *Index, u int) {
			// Redirect the hub ink to a node that is not a hub: DroppedMass
			// would index pos[-1] at query time.
			s := idx.states[u].S.Widen().Idx
			for v := int32(0); int(v) < idx.n; v++ {
				if idx.states[int(v)] != nil && v > s[len(s)-1] {
					setLastIdx(&idx.states[u].S, v)
					return
				}
			}
			panic("no replacement node found")
		}, nil},
		{"state R index out of range", true, func(idx *Index, u int) {
			setLastIdx(&idx.states[u].R, int32(idx.n+5))
		}, nil},
		{"state W gaps sum to n", true, func(idx *Index, u int) {
			setLastIdx(&idx.states[u].W, int32(idx.n))
		}, nil},
		{"state S gap past int32", true, func(idx *Index, u int) {
			// One entry whose five-byte gap decodes to 2³², beyond any
			// int32 index.
			st := idx.states[u]
			st.S.Idx, st.S.Val = []byte{0x80, 0x80, 0x80, 0x80, 0x10}, st.S.Val[:1]
		}, nil},
		{"state S row ends mid-varint", true, func(idx *Index, u int) {
			st := idx.states[u]
			st.S.Idx = append(append([]byte(nil), st.S.Idx...), 0x80)
		}, nil},
		{"state S non-minimal varint", true, func(idx *Index, u int) {
			// The last gap's one byte b written as b|0x80, 0x00: the same
			// value in two bytes.
			st := idx.states[u]
			b := append([]byte(nil), st.S.Idx...)
			b[len(b)-1] |= 0x80
			st.S.Idx = append(b, 0x00)
		}, nil},
		{"state S decodes one index more than its values", true, func(idx *Index, u int) {
			st := idx.states[u]
			st.S.Idx = append(append([]byte(nil), st.S.Idx...), 0x00)
		}, nil},
		{"state S decodes one index fewer than its values", true, func(idx *Index, u int) {
			st := idx.states[u]
			st.S.Val = append(append([]float32(nil), st.S.Val...), st.S.Val[0])
		}, nil},
		{"state S byte-offset table not monotone", true, func(*Index, int) {}, func(img []byte) {
			// Raise the first row boundary past the second: the first S row
			// would end after the second begins.
			tab := sectionAt(img, secStateSIdxOff)
			second := binary.LittleEndian.Uint64(tab[16:])
			binary.LittleEndian.PutUint64(tab[8:], second+1)
		}},
		{"state R byte-offset table runs past its slab", true, func(*Index, int) {}, func(img []byte) {
			tab := sectionAt(img, secStateRIdxOff)
			slab := uint64(len(sectionAt(img, secStateRIdx)))
			binary.LittleEndian.PutUint64(tab[len(tab)-8:], slab+1)
		}},
		{"negative ink value", false, func(idx *Index, u int) {
			idx.states[u].S.Val[0] = -idx.states[u].S.Val[0]
		}, nil},
		{"infinite hub column value", false, func(idx *Index, u int) {
			_, _, cols, _, _, _ := idx.hubs.Parts()
			cols[0].Val[0] = float32(math.Inf(1))
		}, nil},
		{"NaN in phat column", false, func(idx *Index, u int) {
			idx.phat[u][0] = math.NaN()
		}, nil},
		{"phat above proximity range", false, func(idx *Index, u int) {
			idx.phat[u][0] = 2.5
		}, nil},
		{"residue norm below the stored R", false, func(idx *Index, u int) {
			// Half the residue moved to W: ink is conserved, but R holds
			// more than ‖r‖₁.
			st := idx.states[u]
			st.W.Val[0] += float32(st.RNorm / 2)
			st.RNorm /= 2
		}, nil},
		{"folded state whose ink is not conserved", false, func(idx *Index, u int) {
			st := idx.states[u]
			st.R, st.RNorm = vecmath.Packed32{}, st.RNorm+1e-3
		}, nil},
		{"summarized state holding more than the unit of ink", false, func(idx *Index, u int) {
			st := idx.states[u]
			st.R, st.W = vecmath.Packed32{}, vecmath.Packed32{}
			st.RNorm = 1 - st.S.L1()/2
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := corruptIndex(t, tc.mutate)
			if tc.patch != nil {
				tc.patch(img)
				reseal(img)
			}
			if _, err := Load(bytes.NewReader(img)); err == nil {
				t.Fatal("Load accepted a corrupt image")
			} else {
				t.Logf("rejected as expected: %v", err)
			}
			if !tc.structural {
				return
			}
			path := filepath.Join(t.TempDir(), "corrupt.idx")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mmap := range []bool{false, true} {
				if _, err := LoadFile(path, LoadOptions{Mmap: mmap}); err == nil {
					t.Fatalf("LoadFile (mmap %v) accepted a corrupt image", mmap)
				}
			}
		})
	}
	// A format v2 or v3 image — the container of v4, its values float64 or
	// its state indices u32 — is refused by name on every loader.
	clean := corruptIndex(t, func(*Index, int) {})
	for _, r := range retired {
		for _, img := range retiredImages(r.magic, clean) {
			t.Run("format "+r.version+" "+img.name, func(t *testing.T) { requireRefused(t, img.img, r.err) })
		}
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

// TestRelabeledImagesRefused: an image whose section count is one more than
// a full image's or a shard slice's (23 or 26) was written by the removed
// rtkindex -relabel flag, its last section a node permutation. Every loader
// refuses it by name, before the checksum that the patched count breaks.
func TestRelabeledImagesRefused(t *testing.T) {
	g, idx := shardTestIndex(t)
	pm, err := partition.NewBalanced(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := idx.ShardSlice(pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		idx  *Index
		nsec uint32
	}{{"full", idx, v2NumSections + 1}, {"shard slice", slice, v2NumSectionsSharded + 1}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.idx.Save(&buf); err != nil {
				t.Fatal(err)
			}
			img := buf.Bytes()
			binary.LittleEndian.PutUint32(img[16:20], tc.nsec)
			requireRefused(t, img, ErrRelabeled)
		})
	}
}

// TestHashSlicesRefused: a shard slice stored with strategy 0, the removed
// hash partitioner's, is refused by name on every load path.
func TestHashSlicesRefused(t *testing.T) {
	g, idx := shardTestIndex(t)
	pm, err := partition.NewBalanced(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := idx.ShardSlice(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := slice.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	binary.LittleEndian.PutUint32(sectionAt(img, secPartMeta)[0:], 0)
	reseal(img)
	requireRefused(t, img, partition.ErrHash)
}

// TestRangeSlicesLoad: a shard slice stored with strategy 1, the removed
// range partitioner's, loads by its stored bounds on every path as the same
// index as the strategy-2 slice Save writes, and saves back to that slice's
// bytes. A strategy no writer ever stored is refused.
func TestRangeSlicesLoad(t *testing.T) {
	g, idx := shardTestIndex(t)
	pm, err := partition.FromParts(g.N(), 2, []int32{0, 100, 200})
	if err != nil {
		t.Fatal(err)
	}
	slice, err := idx.ShardSlice(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := slice.Save(&buf); err != nil {
		t.Fatal(err)
	}
	want := buf.Bytes()
	if got := binary.LittleEndian.Uint32(sectionAt(want, secPartMeta)); got != 2 {
		t.Fatalf("strategy slot written as %d, want 2", got)
	}
	img := append([]byte(nil), want...)
	binary.LittleEndian.PutUint32(sectionAt(img, secPartMeta)[0:], 1)
	reseal(img)
	path := filepath.Join(t.TempDir(), "range.idx")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(loader string, got *Index, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", loader, err)
		}
		requireIndexEqual(t, slice, got)
		if gotPM, s, ok := got.Shard(); !ok || s != 1 || !gotPM.Equal(pm) {
			t.Fatalf("%s: shard %d of %v (ok=%v), want shard 1 of %v", loader, s, gotPM, ok, pm)
		}
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatalf("%s: Save: %v", loader, err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("%s: re-saved slice differs from the strategy-2 image", loader)
		}
	}
	got, err := Load(bytes.NewReader(img))
	check("Load", got, err)
	for _, mmap := range []bool{false, true} {
		got, err := LoadFile(path, LoadOptions{Mmap: mmap})
		check(fmt.Sprintf("LoadFile mmap=%v", mmap), got, err)
	}
	binary.LittleEndian.PutUint32(sectionAt(img, secPartMeta)[0:], 3)
	reseal(img)
	if _, err := Load(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "strategy 3") {
		t.Fatalf("strategy 3: got %v, want it refused by name", err)
	}
}

// TestRetiredMetaSlotsIgnored: the meta section's hub-scheme and greedy-seed
// slots are written as zero and not read, so an image written with them set
// (by the removed rtkindex -hubs greedy) loads on every path as the same
// index as its zero-slot twin.
func TestRetiredMetaSlotsIgnored(t *testing.T) {
	g := randomGraph(3, 40)
	idx, _, err := Build(g, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	meta := sectionAt(buf.Bytes(), secMeta)
	if binary.LittleEndian.Uint32(meta[16:]) != 0 || binary.LittleEndian.Uint64(meta[40:]) != 0 {
		t.Fatalf("retired slots written nonzero: %x", meta[16:48])
	}
	img := append([]byte(nil), buf.Bytes()...)
	meta = sectionAt(img, secMeta)
	binary.LittleEndian.PutUint32(meta[16:], 1)
	binary.LittleEndian.PutUint64(meta[40:], 12345)
	reseal(img)
	path := filepath.Join(t.TempDir(), "greedy.idx")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireIndexEqual(t, idx, got)
	for _, mmap := range []bool{false, true} {
		got, err := LoadFile(path, LoadOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("LoadFile mmap=%v: %v", mmap, err)
		}
		requireIndexEqual(t, idx, got)
	}
}
