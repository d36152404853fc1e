package lbindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// weightedGraph is randomGraph with weights in [1, 5).
func weightedGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddWeightedEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), 1+4*rng.Float64())
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		panic(err)
	}
	return g
}

// loadAll loads img through every loader: the stream, and LoadFile on the
// heap and mapped.
func loadAll(t *testing.T, img []byte) map[string]*Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.idx")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	out := map[string]*Index{}
	var err error
	if out["Load"], err = Load(bytes.NewReader(img)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for name, mmap := range map[string]bool{"LoadFile heap": false, "LoadFile mmap": true} {
		if out[name], err = LoadFile(path, LoadOptions{Mmap: mmap}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out
}

// TestGraphSectionsRoundTrip: the graph an index stores comes back from
// every loader reflect.DeepEqual to the graph it was built on — unweighted,
// weighted, grown and edited by Graph.Apply, and in every shard slice — and
// a loaded index saves back to the bytes it was loaded from.
func TestGraphSectionsRoundTrip(t *testing.T) {
	plain := randomGraph(21, 60)
	coauthor, _, err := gen.Coauthor(gen.CoauthorOptions{Authors: 120, Communities: 4, Prolific: 2, PapersPerAuthor: 4, CoauthorsPerPaper: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !coauthor.Weighted() {
		t.Fatal("the coauthor graph is unweighted")
	}
	applied, err := plain.Apply([]graph.EdgeEdit{
		{From: 0, To: 61}, {From: 4, To: 2, Weight: 3.25}, {From: 9, To: plain.OutNeighbors(9)[0], Remove: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Index{}
	for name, g := range map[string]*graph.Graph{"unweighted": plain, "weighted": coauthor, "applied": applied} {
		idx, _, err := Build(g, testOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = idx
	}
	sg, full := shardTestIndex(t)
	for name, pm := range shardMaps(t, sg, 3) {
		for s := 0; s < pm.P(); s++ {
			slice, err := full.ShardSlice(pm, s)
			if err != nil {
				t.Fatal(err)
			}
			if slice.Graph() != sg {
				t.Fatalf("%s shard %d does not keep the full graph", name, s)
			}
			cases[name+" shard "+string(rune('0'+s))] = slice
		}
	}
	for name, idx := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := idx.Save(&buf); err != nil {
				t.Fatal(err)
			}
			for loader, got := range loadAll(t, buf.Bytes()) {
				if !reflect.DeepEqual(got.Graph(), idx.Graph()) {
					t.Fatalf("%s: the loaded graph differs from the built one", loader)
				}
				var again bytes.Buffer
				if err := got.Save(&again); err != nil {
					t.Fatalf("%s: Save: %v", loader, err)
				}
				if !bytes.Equal(again.Bytes(), buf.Bytes()) {
					t.Fatalf("%s: Save → Load → Save changed the image", loader)
				}
			}
		})
	}
}

// TestSourceDigest: the source digest survives Save and every loader, Clone,
// CloneGrown and ShardSlice carry it, and attaching another graph drops it —
// a refreshed index has no edge-list file — while re-attaching the same
// graph keeps it. SizeBytes (Table 2's size) leaves the graph out.
func TestSourceDigest(t *testing.T) {
	g, idx := shardTestIndex(t)
	if _, ok := idx.Source(); ok {
		t.Fatal("a built index records a source")
	}
	sum := sha256.Sum256([]byte("0 1\n1 0\n"))
	idx.SetSource(sum)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sectionAt(buf.Bytes(), secGraphSrc); !bytes.Equal(got, sum[:]) {
		t.Fatalf("source section holds %x, want %x", got, sum)
	}
	for loader, got := range loadAll(t, buf.Bytes()) {
		if s, ok := got.Source(); !ok || s != sum {
			t.Fatalf("%s: source %x (ok=%v), want %x", loader, s, ok, sum)
		}
		if got.SizeBytes() != idx.SizeBytes() {
			t.Fatalf("%s: SizeBytes %d, want %d", loader, got.SizeBytes(), idx.SizeBytes())
		}
	}
	pm := shardMaps(t, g, 2)["balanced"]
	slice, err := idx.ShardSlice(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Index{"Clone": idx.Clone(), "CloneGrown": idx.CloneGrown(idx.N() + 1), "ShardSlice": slice} {
		if s, ok := c.Source(); !ok || s != sum || c.Graph() != g {
			t.Fatalf("%s dropped the graph or its source", name)
		}
	}
	if lg := int64(len(buf.Bytes())); idx.SizeBytes() >= lg-int64(len(sectionAt(buf.Bytes(), secGraphTgt))) {
		t.Fatalf("SizeBytes %d counts the graph sections of a %d-byte image", idx.SizeBytes(), lg)
	}

	c := idx.Clone()
	if err := c.SetGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Source(); !ok {
		t.Fatal("re-attaching the same graph dropped the source")
	}
	g2, err := g.Apply([]graph.EdgeEdit{{From: 3, To: g.OutNeighbors(3)[0], Remove: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetGraph(g2); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Source(); ok || c.Graph() != g2 {
		t.Fatal("attaching an edited graph kept the source")
	}
	if s, ok := idx.Source(); !ok || s != sum || idx.Graph() != g {
		t.Fatal("SetGraph on a clone reached the original")
	}
	grown, err := g.Apply([]graph.EdgeEdit{{From: 3, To: graph.NodeID(g.N())}})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Clone().SetGraph(grown); err == nil {
		t.Fatal("SetGraph attached a graph of another node count")
	}
}

// TestGraphSectionCorruptionRejected: a malformed graph section behind valid
// checksums is refused by every loader, the mapped one included — the graph
// is decoded and validated row by row on both paths.
func TestGraphSectionCorruptionRejected(t *testing.T) {
	plain, _, err := Build(randomGraph(22, 40), testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	weighted, _, err := Build(weightedGraph(23, 40), testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		idx   *Index
		sec   int
		patch func(sec []byte)
		want  string
	}{
		{"empty row", plain, secGraphDeg, func(sec []byte) { sec[0] = 0 }, "row 0 has no out-edges"},
		{"degree past n", plain, secGraphDeg, func(sec []byte) { sec[0] = 0x7f }, "claims 127 out-edges"},
		{"degree ends mid-varint", plain, secGraphDeg, func(sec []byte) { sec[len(sec)-1] = 0x81 }, "not a complete minimal varint"},
		{"target past n", plain, secGraphTgt, func(sec []byte) { sec[0] = 40 }, "at or past n = 40"},
		{"target ends mid-varint", plain, secGraphTgt, func(sec []byte) { sec[len(sec)-1] = 0x80 }, "not a complete minimal varint"},
		{"NaN weight", weighted, secGraphW, func(sec []byte) { binary.LittleEndian.PutUint64(sec, math.Float64bits(math.NaN())) }, "not a finite value"},
		{"subnormal weight", weighted, secGraphW, func(sec []byte) { binary.LittleEndian.PutUint64(sec, 1) }, "not a finite value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.idx.Save(&buf); err != nil {
				t.Fatal(err)
			}
			img := buf.Bytes()
			tc.patch(sectionAt(img, tc.sec))
			reseal(img)
			path := filepath.Join(t.TempDir(), "corrupt.idx")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			_, errStream := Load(bytes.NewReader(img))
			_, errHeap := LoadFile(path, LoadOptions{Mmap: false})
			_, errMmap := LoadFile(path, LoadOptions{Mmap: true})
			for loader, err := range map[string]error{"Load": errStream, "LoadFile heap": errHeap, "LoadFile mmap": errMmap} {
				if err == nil || !strings.Contains(err.Error(), "stored graph") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: got %v, want a stored-graph error containing %q", loader, err, tc.want)
				}
			}
		})
	}
}
