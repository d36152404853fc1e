package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
)

// TestQueryIdenticalAcrossLoaders holds every form a saved index reaches an
// engine in to the oracle table (the built form has its rows in
// TestParallelQueryMatchesSequentialAndBruteForce): read onto the heap and
// served zero-copy via mmap from its file, and saved to a buffer and loaded
// back — each answering over the graph its image stores — in no-update
// engines, and the mmap form in an update (refining) engine too, whose
// commits must not write into the mapping.
func TestQueryIdenticalAcrossLoaders(t *testing.T) {
	for _, family := range oracle.Families() {
		tab := oracle.Family(t, family)
		built := tab.Index(t)
		path := filepath.Join(t.TempDir(), "i.idx")
		if err := built.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		var image bytes.Buffer
		if err := built.Save(&image); err != nil {
			t.Fatal(err)
		}
		forms := map[string]func() (*lbindex.Index, error){
			"heap":        func() (*lbindex.Index, error) { return lbindex.LoadFile(path, lbindex.LoadOptions{}) },
			"mmap":        func() (*lbindex.Index, error) { return lbindex.LoadFile(path, lbindex.LoadOptions{Mmap: true}) },
			"save → load": func() (*lbindex.Index, error) { return lbindex.Load(bytes.NewReader(image.Bytes())) },
		}
		for name, load := range forms {
			updates := []bool{false}
			if name == "mmap" {
				updates = append(updates, true)
			}
			for _, update := range updates {
				idx, err := load()
				if err != nil {
					t.Fatalf("%s %s: %v", family, name, err)
				}
				eng, err := NewEngine(idx.Graph(), idx, update)
				if err != nil {
					t.Fatal(err)
				}
				oracle.Check(t, fmt.Sprintf("Engine.Query over the %s index, update=%t", name, update), tab,
					func(q graph.NodeID, k int) ([]graph.NodeID, error) {
						ans, _, err := eng.Query(q, k)
						return ans, err
					})
			}
		}
	}
}
