package lbindex

import (
	"bufio"
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func shardTestIndex(t *testing.T) (*graph.Graph, *Index) {
	t.Helper()
	g, err := gen.WebGraph(200, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.K = 16
	opts.HubBudget = 6
	idx, _, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, idx
}

// shardMaps returns three maps over p ∈ {2, 3, 4} shards of the 200-node
// test graph: a balanced one, the near-equal cut the removed range
// partitioner made, and that cut with shard 0 owning nothing — the last two
// as stored bounds.
func shardMaps(t *testing.T, g *graph.Graph, p int) map[string]*partition.Map {
	t.Helper()
	bal, err := partition.NewBalanced(g, p)
	if err != nil {
		t.Fatal(err)
	}
	cut := map[int][]int32{2: {0, 100, 200}, 3: {0, 67, 134, 200}, 4: {0, 50, 100, 150, 200}}[p]
	maps := map[string]*partition.Map{"balanced": bal}
	for name, bounds := range map[string][]int32{"range": cut, "empty shard": append([]int32{0, 0}, cut[2:]...)} {
		if maps[name], err = partition.FromParts(g.N(), p, bounds); err != nil {
			t.Fatal(err)
		}
	}
	return maps
}

// TestShardSliceSharesRows checks a slice exposes exactly its range's rows,
// aliasing the full index's columns bit for bit, and panics on foreign rows.
func TestShardSliceSharesRows(t *testing.T) {
	g, idx := shardTestIndex(t)
	for name, pm := range shardMaps(t, g, 3) {
		covered := 0
		for s := 0; s < pm.P(); s++ {
			slice, err := idx.ShardSlice(pm, s)
			if err != nil {
				t.Fatalf("%s: ShardSlice(%d): %v", name, s, err)
			}
			if slice.N() != idx.N() || slice.K() != idx.K() {
				t.Fatalf("%s: slice shape n=%d K=%d", name, slice.N(), slice.K())
			}
			gotPM, gotShard, ok := slice.Shard()
			if !ok || gotShard != s || !gotPM.Equal(pm) {
				t.Fatalf("%s: slice shard info wrong", name)
			}
			if err := slice.CheckInvariants(); err != nil {
				t.Fatalf("%s shard %d: invariants: %v", name, s, err)
			}
			lo, hi := slice.Rows()
			if wlo, whi := pm.Range(s); lo != wlo || hi != whi {
				t.Fatalf("%s shard %d: Rows() = [%d,%d), want [%d,%d)", name, s, lo, hi, wlo, whi)
			}
			covered += hi - lo
			for u := graph.NodeID(lo); u < graph.NodeID(hi); u++ {
				if !slice.Owns(u) {
					t.Fatalf("%s: Owns(%d) false for owned node", name, u)
				}
				want := idx.PHatRow(u)
				got := slice.PHatRow(u)
				if !bytes.Equal(floatBytes(want), floatBytes(got)) {
					t.Fatalf("%s shard %d: p̂ row %d differs from full index", name, s, u)
				}
				if idx.ResidueNorm(u) != slice.ResidueNorm(u) {
					t.Fatalf("%s shard %d: residue of %d differs", name, s, u)
				}
			}
		}
		if covered != g.N() {
			t.Fatalf("%s: slices cover %d of %d nodes", name, covered, g.N())
		}
		// Reading a row the shard does not own must panic with a clear
		// message, not misbehave silently.
		slice, err := idx.ShardSlice(pm, 0)
		if err != nil {
			t.Fatal(err)
		}
		var foreign graph.NodeID = -1
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			if !slice.Owns(u) {
				foreign = u
				break
			}
		}
		if foreign >= 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: foreign-row read did not panic", name)
					}
				}()
				slice.KthLowerBound(foreign, 1)
			}()
		}
		if _, err := slice.ShardSlice(pm, 0); err == nil {
			t.Errorf("%s: re-slicing a slice accepted", name)
		}
	}
}

// TestShardSliceSaveLoad round-trips slices through the sharded v2 format in
// both load modes and checks every owned row survives bit for bit, with the
// partition map reconstructed.
func TestShardSliceSaveLoad(t *testing.T) {
	g, idx := shardTestIndex(t)
	dir := t.TempDir()
	for name, pm := range shardMaps(t, g, 4) {
		for s := 0; s < pm.P(); s++ {
			slice, err := idx.ShardSlice(pm, s)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name+".idx")
			if err := slice.SaveFile(path); err != nil {
				t.Fatalf("%s shard %d: SaveFile: %v", name, s, err)
			}
			for _, mmap := range []bool{false, true} {
				loaded, err := LoadFile(path, LoadOptions{Mmap: mmap})
				if err != nil {
					t.Fatalf("%s shard %d mmap=%v: LoadFile: %v", name, s, mmap, err)
				}
				pm2, shard2, ok := loaded.Shard()
				if !ok || shard2 != s || !pm2.Equal(pm) {
					t.Fatalf("%s shard %d mmap=%v: partition map not reconstructed", name, s, mmap)
				}
				if err := loaded.CheckInvariants(); err != nil {
					t.Fatalf("%s shard %d mmap=%v: invariants: %v", name, s, mmap, err)
				}
				lo, hi := slice.Rows()
				if glo, ghi := loaded.Rows(); glo != lo || ghi != hi {
					t.Fatalf("%s shard %d: loaded rows [%d,%d), want [%d,%d)", name, s, glo, ghi, lo, hi)
				}
				for u := graph.NodeID(lo); u < graph.NodeID(hi); u++ {
					if !bytes.Equal(floatBytes(loaded.PHatRow(u)), floatBytes(slice.PHatRow(u))) {
						t.Fatalf("%s shard %d mmap=%v: p̂ row %d differs after reload", name, s, mmap, u)
					}
					st, st2 := slice.StateSnapshot(u), loaded.StateSnapshot(u)
					if (st == nil) != (st2 == nil) {
						t.Fatalf("%s shard %d: state presence of %d differs", name, s, u)
					}
					if st != nil && (st.RNorm != st2.RNorm || st.T != st2.T || st.R.NNZ() != st2.R.NNZ()) {
						t.Fatalf("%s shard %d: state of %d differs after reload", name, s, u)
					}
				}
			}
		}
	}
}

// TestShardSliceCorruptionRejected flips bytes across a sharded image and
// requires every single-byte corruption to be rejected, exactly like the
// full-format guarantee.
func TestShardSliceCorruptionRejected(t *testing.T) {
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
	if _, err := parseV2(append([]byte(nil), img...), true); err != nil {
		t.Fatalf("pristine sharded image rejected: %v", err)
	}
	stride := len(img)/971 + 1
	for pos := 0; pos < len(img); pos += stride {
		corrupt := append([]byte(nil), img...)
		corrupt[pos] ^= 0x40
		if _, err := parseV2(corrupt, true); err == nil {
			t.Fatalf("flipped byte at %d accepted", pos)
		}
	}
}

// TestShardCloneGrown: growth extends the last shard's range over the new
// ids and never migrates existing nodes.
func TestShardCloneGrown(t *testing.T) {
	g, idx := shardTestIndex(t)
	for name, pm := range shardMaps(t, g, 2) {
		for s := 0; s < 2; s++ {
			slice, err := idx.ShardSlice(pm, s)
			if err != nil {
				t.Fatal(err)
			}
			grown := slice.CloneGrown(g.N() + 10)
			pm2, _, ok := grown.Shard()
			if !ok || pm2.N() != g.N()+10 {
				t.Fatalf("%s shard %d: grown partition covers %d", name, s, pm2.N())
			}
			lo, hi := slice.Rows()
			if s == 1 {
				hi += 10
			}
			if glo, ghi := grown.Rows(); glo != lo || ghi != hi {
				t.Fatalf("%s shard %d: grown rows [%d,%d), want [%d,%d)", name, s, glo, ghi, lo, hi)
			}
			if grown.Owns(graph.NodeID(g.N())) != (s == 1) {
				t.Fatalf("%s shard %d: ownership of new node %d wrong", name, s, g.N())
			}
		}
	}
}

func floatBytes(xs []float64) []byte {
	var buf bytes.Buffer
	bw := &binWriter{w: bufio.NewWriter(&buf)}
	bw.floats(xs)
	bw.w.Flush()
	return buf.Bytes()
}
