package lbindex

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/vecmath"
)

// refinedIndex builds a small index and commits a few refinements so the
// refinement counter and some re-committed rows are exercised by the
// round-trip tests.
func refinedIndex(t testing.TB, seed int64, n, k int) *Index {
	t.Helper()
	idx, _, err := Build(randomGraph(seed, n), testOptions(k))
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for u := 0; u < idx.N() && committed < 3; u++ {
		if st := idx.StateSnapshot(graph.NodeID(u)); st != nil {
			idx.Commit(graph.NodeID(u), st, idx.PHatRow(graph.NodeID(u)))
			committed++
		}
	}
	return idx
}

func requireFloatsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: value %d: %g vs %g", what, i, a[i], b[i])
		}
	}
}

func requireSparseEqual(t *testing.T, what string, a, b vecmath.Sparse) {
	t.Helper()
	if a.NNZ() != b.NNZ() {
		t.Fatalf("%s: nnz %d vs %d", what, a.NNZ(), b.NNZ())
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] {
			t.Fatalf("%s: index %d: %d vs %d", what, i, a.Idx[i], b.Idx[i])
		}
	}
	requireFloatsEqual(t, what, a.Val, b.Val)
}

// requireSparse32Equal is requireSparseEqual on float32 values, which widen
// to float64 exactly.
func requireSparse32Equal(t *testing.T, what string, a, b vecmath.Sparse32) {
	t.Helper()
	requireSparseEqual(t, what, a.Widen(), b.Widen())
}

// requirePackedEqual holds a packed row to the Sparse32 it encodes: its
// indices decoded and its values widened, bit for bit.
func requirePackedEqual(t *testing.T, what string, p vecmath.Packed32, s vecmath.Sparse32) {
	t.Helper()
	requireSparseEqual(t, what, p.Widen(), s.Widen())
}

// requireIndexEqual asserts two indexes are value-identical: options,
// refinement counter, graph (field for field) and source digest, hub matrix
// parts, every state and every p̂ column, with float64s compared bit for bit.
func requireIndexEqual(t *testing.T, a, b *Index) {
	t.Helper()
	// Workers is a runtime knob, not part of the persisted format.
	ao, bo := a.opts, b.opts
	ao.Workers, bo.Workers = 0, 0
	if a.n != b.n || ao != bo {
		t.Fatalf("shape/options differ: n %d/%d, opts %+v vs %+v", a.n, b.n, ao, bo)
	}
	if a.Refinements() != b.Refinements() {
		t.Fatalf("refinements %d vs %d", a.Refinements(), b.Refinements())
	}
	if a.Watermark() != b.Watermark() {
		t.Fatalf("watermark %d vs %d", a.Watermark(), b.Watermark())
	}
	if !reflect.DeepEqual(a.graph, b.graph) || a.source != b.source {
		t.Fatalf("graph or source digest differs: %x vs %x", a.source, b.source)
	}
	an, ahubs, acols, atopk, adrop, aomega := a.HubMatrix().Parts()
	bn, bhubs, bcols, btopk, bdrop, bomega := b.HubMatrix().Parts()
	if an != bn || aomega != bomega || len(ahubs) != len(bhubs) {
		t.Fatalf("hub matrix shape differs: n %d/%d omega %g/%g hubs %d/%d", an, bn, aomega, bomega, len(ahubs), len(bhubs))
	}
	requireFloatsEqual(t, "hub dropped", adrop, bdrop)
	for i := range ahubs {
		if ahubs[i] != bhubs[i] {
			t.Fatalf("hub %d: id %d vs %d", i, ahubs[i], bhubs[i])
		}
		requireFloatsEqual(t, "hub topK", atopk[i], btopk[i])
		requireSparse32Equal(t, "hub col", acols[i], bcols[i])
	}
	for u := 0; u < a.n; u++ {
		requireFloatsEqual(t, "phat", a.phat[u], b.phat[u])
		as, bs := a.states[u], b.states[u]
		if (as == nil) != (bs == nil) {
			t.Fatalf("node %d: state nil-ness differs", u)
		}
		if as == nil {
			continue
		}
		if as.T != bs.T || math.Float64bits(as.RNorm) != math.Float64bits(bs.RNorm) {
			t.Fatalf("node %d: state header differs", u)
		}
		requireSparseEqual(t, "R", as.R.Widen(), bs.R.Widen())
		requireSparseEqual(t, "W", as.W.Widen(), bs.W.Widen())
		requireSparseEqual(t, "S", as.S.Widen(), bs.S.Widen())
	}
}

// TestV2RoundTripProperty: a saved image loads value-identical to the index
// that wrote it — options, refinement counter, hub columns, states and p̂
// all included — through the deep loader and the mmap-structural parser.
// It also checks Save is deterministic (two saves, identical bytes).
func TestV2RoundTripProperty(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		idx := refinedIndex(t, seed, 40, 4)

		var v2a, v2b bytes.Buffer
		if err := idx.Save(&v2a); err != nil {
			t.Fatal(err)
		}
		if err := idx.Save(&v2b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v2a.Bytes(), v2b.Bytes()) {
			t.Fatalf("seed %d: Save is not deterministic", seed)
		}
		fromV2, err := Load(bytes.NewReader(v2a.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: v2 load: %v", seed, err)
		}
		requireIndexEqual(t, idx, fromV2)

		// And the mmap-structural parser agrees with the deep loader.
		aligned := alignedBytes(v2a.Len())
		copy(aligned, v2a.Bytes())
		mapped, err := parseV2(aligned, false)
		if err != nil {
			t.Fatalf("seed %d: structural parse: %v", seed, err)
		}
		requireIndexEqual(t, fromV2, mapped)
	}
}

// TestV2FlipEveryByteRejected is the corruption acceptance test for the
// checksummed format: flipping ANY single byte of a valid v2 image must
// make both the deep loader and the mmap-structural parser reject it —
// there is no offset at which corruption loads silently.
func TestV2FlipEveryByteRejected(t *testing.T) {
	idx := refinedIndex(t, 7, 24, 3)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	corrupt := alignedBytes(len(valid))
	for off := 0; off < len(valid); off++ {
		copy(corrupt, valid)
		corrupt[off] ^= 0xFF
		if _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("deep loader accepted a flip at offset %d/%d", off, len(valid))
		}
		if _, err := parseV2(corrupt, false); err == nil {
			t.Fatalf("structural parser accepted a flip at offset %d/%d", off, len(valid))
		}
	}
}

// TestV2TruncatedPrefixes runs Load on every prefix of a valid v2 image:
// each must return an error, never panic or be accepted.
func TestV2TruncatedPrefixes(t *testing.T) {
	idx := refinedIndex(t, 5, 12, 3)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut++ {
		if _, err := Load(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("Load accepted a %d/%d-byte v2 truncation", cut, len(valid))
		}
	}
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("Load rejected the untruncated v2 image: %v", err)
	}
	// Trailing garbage after a complete image is corruption too.
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), valid...), 0))); err == nil {
		t.Fatal("Load accepted a v2 image with trailing data")
	}
}

// TestLoadFileMmap exercises the zero-copy loader end to end: map, verify,
// query-relevant reads, copy-on-write refinement, deterministic re-save,
// and the mmap-off fallback.
func TestLoadFileMmap(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	idx := refinedIndex(t, 13, 40, 4)
	dir := t.TempDir()
	v2path := filepath.Join(dir, "index.v2")
	writeIndex(t, v2path, idx.Save)

	mapped, err := LoadFile(v2path, LoadOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.MmapBacked() {
		t.Fatal("LoadFile(Mmap) returned a heap index")
	}
	requireIndexEqual(t, idx, mapped)

	heap2, err := LoadFile(v2path, LoadOptions{Mmap: false})
	if err != nil {
		t.Fatal(err)
	}
	if heap2.MmapBacked() {
		t.Fatal("LoadFile(Mmap:false) returned an mmap-backed index")
	}
	requireIndexEqual(t, mapped, heap2)

	// Clone shares the mapping; commits into the clone are copy-on-write
	// (fresh heap rows replace the mapped pointers) and never leak back.
	clone := mapped.Clone()
	if clone.backing != mapped.backing || !clone.MmapBacked() {
		t.Fatal("Clone does not share the mapping")
	}
	var target graph.NodeID = -1
	for u := 0; u < clone.N(); u++ {
		if clone.states[u] != nil {
			target = graph.NodeID(u)
			break
		}
	}
	st := clone.StateSnapshot(target)
	st.T++
	clone.Commit(target, st, clone.PHatRow(target))
	if mapped.states[target].T == st.T {
		t.Fatal("commit to clone mutated the mapped original")
	}

	// A re-save of the (unmodified) mapped index reproduces the image bit
	// for bit — Save reads straight out of the mapping.
	var resaved bytes.Buffer
	if err := mapped.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), onDisk) {
		t.Fatal("re-save of an mmap-backed index is not bit-identical to its file")
	}
}

// TestMappingRefcount pins the unmap discipline: the mapping survives
// however many retains are outstanding and unmaps exactly when the last
// reference is released.
func TestMappingRefcount(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	path := filepath.Join(t.TempDir(), "img")
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := mmapFile(f, 4096)
	if err != nil {
		t.Fatal(err)
	}
	m.retain()
	m.retain()
	m.release()
	if m.data == nil {
		t.Fatal("mapping released while a reference was outstanding")
	}
	m.release()
	if m.data != nil {
		t.Fatal("mapping not released at refcount zero")
	}
}

// mmapChildEnv names the index file TestHubMatrixOutlivesMappedIndex's child
// process loads; set only in that child's environment.
const mmapChildEnv = "LBINDEX_TEST_MMAP_CHILD"

// TestHubMatrixOutlivesMappedIndex: a caller that keeps only the hub matrix
// of an index loaded with Mmap: true reads it after the index itself has
// been collected — the matrix's slices alias the mapping, so it must keep
// the mapping alive. An unmapped read faults (SIGSEGV), which no test can
// recover from, so the load, the two collections and the read run in a
// child process and the test reads its exit.
func TestHubMatrixOutlivesMappedIndex(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	if path := os.Getenv(mmapChildEnv); path != "" {
		hm := mappedHubMatrix(t, path)
		if hm.NumHubs() == 0 {
			t.Fatal("the index has no hubs")
		}
		runtime.GC()
		runtime.GC()
		time.Sleep(50 * time.Millisecond) // cleanups run on their own goroutine
		sum := 0.0
		for _, h := range hm.Hubs() {
			sum += hm.DroppedMass(h)
			for _, v := range hm.ExactTopK(h) {
				sum += v
			}
		}
		fmt.Printf("hub matrix read: %d hubs, sum %g\n", hm.NumHubs(), sum)
		return
	}
	path := filepath.Join(t.TempDir(), "index")
	writeIndex(t, path, refinedIndex(t, 13, 40, 4).Save)
	cmd := exec.Command(os.Args[0], "-test.run=^TestHubMatrixOutlivesMappedIndex$", "-test.count=1")
	cmd.Env = append(os.Environ(), mmapChildEnv+"="+path)
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "hub matrix read") {
		t.Fatalf("reading the hub matrix of a collected mapped index: %v\n%s", err, out)
	}
}

// mappedHubMatrix loads path with Mmap: true and returns its hub matrix
// alone: the index is unreachable once it returns.
func mappedHubMatrix(t *testing.T, path string) *hub.Matrix {
	idx, err := LoadFile(path, LoadOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.MmapBacked() {
		t.Fatal("LoadFile(Mmap) returned a heap index")
	}
	return idx.HubMatrix()
}

func writeIndex(t *testing.T, path string, save func(w io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := save(f); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV2WatermarkRoundTrip checks the edit-journal watermark embedded in
// the meta block survives save/load through every loader.
func TestV2WatermarkRoundTrip(t *testing.T) {
	idx := refinedIndex(t, 13, 30, 3)
	const wm = 987654321
	idx.SetWatermark(wm)
	if c := idx.Clone(); c.Watermark() != wm {
		t.Fatalf("Clone watermark %d, want %d", c.Watermark(), wm)
	}
	if c := idx.CloneGrown(idx.N() + 2); c.Watermark() != wm {
		t.Fatalf("CloneGrown watermark %d, want %d", c.Watermark(), wm)
	}

	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	deep, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if deep.Watermark() != wm {
		t.Fatalf("deep load watermark %d, want %d", deep.Watermark(), wm)
	}
	aligned := alignedBytes(buf.Len())
	copy(aligned, buf.Bytes())
	structural, err := parseV2(aligned, false)
	if err != nil {
		t.Fatal(err)
	}
	if structural.Watermark() != wm {
		t.Fatalf("structural parse watermark %d, want %d", structural.Watermark(), wm)
	}
}
