package rwr

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// TestProximityVectorBatchBitIdentical is the forward tier's contract:
// every column of the SpMM-batched power method — vector, iteration count
// and residual — is bit-identical to the reference power loop, across graph
// families, batch widths {1,2,4,16} and worker counts. This is what lets the
// engine batch its exact fallbacks without perturbing a single membership
// decision or committed exact state.
func TestProximityVectorBatchBitIdentical(t *testing.T) {
	for name, g := range spmmTestViews(t) {
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			n := g.N()
			for _, width := range spmmWidths {
				origins := make([]graph.NodeID, width)
				for j := range origins {
					origins[j] = graph.NodeID((j*53 + 1) % n)
				}
				want := make([]Result, width)
				for j, u := range origins {
					res, err := refProximityVector(g, u, p)
					if err != nil {
						t.Fatal(err)
					}
					want[j] = res
				}
				for _, workers := range []int{1, 3, 8} {
					got, err := ProximityVectorBatch(g, origins, p, workers)
					if err != nil {
						t.Fatalf("width=%d workers=%d: %v", width, workers, err)
					}
					for j := range origins {
						sameRun(t, fmt.Sprintf("width=%d workers=%d col=%d", width, workers, j), got[j], nil, want[j], nil)
					}
				}
			}
		})
	}
}

// TestProximityVectorBatchMatchesSolverTolerance: ProximityVector is one
// column of the slab, so the batched forward vectors equal it — not only to
// within the solver tolerance but bit for bit, residual and iteration count
// included.
func TestProximityVectorBatchMatchesSolverTolerance(t *testing.T) {
	for name, g := range spmmTestViews(t) {
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			origins := []graph.NodeID{0, 1, graph.NodeID(g.N() / 2)}
			got, err := ProximityVectorBatch(g, origins, p, 4)
			if err != nil {
				t.Fatal(err)
			}
			for j, u := range origins {
				want, err := ProximityVector(g, u, p)
				sameRun(t, fmt.Sprintf("origin %d", u), got[j], nil, want, err)
			}
		})
	}
}
