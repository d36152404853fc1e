package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
)

// TestNewEngineRefusesOtherGraph is NewEngine's row of the oracle table's
// pairing check: it refuses a graph its index was not built on — one of the
// same node count, or the index's own with one edge weight changed — and
// accepts the index's graph and an equal one built apart.
func TestNewEngineRefusesOtherGraph(t *testing.T) {
	oracle.CheckPairing(t, "NewEngine", func(g *graph.Graph, idx *lbindex.Index) error {
		_, err := NewEngine(g, idx, true)
		return err
	})
}

// TestViewRejectsMismatchedPair is NewView's row of the same check.
func TestViewRejectsMismatchedPair(t *testing.T) {
	oracle.CheckPairing(t, "NewView", func(g *graph.Graph, idx *lbindex.Index) error {
		_, err := NewView(g, idx)
		return err
	})
}
