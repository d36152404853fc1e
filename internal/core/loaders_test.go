package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbindex"
)

// TestQueryIdenticalAcrossLoaders is the acceptance check for the index
// file's two loaders: the same file must answer every query bit-identically
// whether it was read onto the heap or served zero-copy via mmap, and as the
// index that wrote it does — in both no-update and update (refining) engines.
func TestQueryIdenticalAcrossLoaders(t *testing.T) {
	g := randomGraph(23, 300, false)
	idx := buildIndex(t, g, 8, 3)

	path := filepath.Join(t.TempDir(), "i.idx")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	load := func(mmap bool) *lbindex.Index {
		li, err := lbindex.LoadFile(path, lbindex.LoadOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("loading %s (mmap=%v): %v", path, mmap, err)
		}
		return li
	}
	indexes := map[string]*lbindex.Index{
		"built":   idx,
		"v2-heap": load(false),
		"v2-mmap": load(true),
	}

	for _, update := range []bool{false, true} {
		engines := make(map[string]*Engine, len(indexes))
		for name, li := range indexes {
			// Update mode refines shared state: give each engine its own
			// clone so the runs stay independent and comparable.
			backing := li
			if update {
				backing = li.Clone()
			}
			eng, err := NewEngine(g, backing, update)
			if err != nil {
				t.Fatal(err)
			}
			engines[name] = eng
		}
		for q := 0; q < g.N(); q += 7 {
			for _, k := range []int{1, 3, 8} {
				want, _, err := engines["built"].Query(graph.NodeID(q), k)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"v2-heap", "v2-mmap"} {
					got, _, err := engines[name].Query(graph.NodeID(q), k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("update=%v q=%d k=%d: %s answered %v, the built index answered %v",
							update, q, k, name, got, want)
					}
				}
			}
		}
	}
}
