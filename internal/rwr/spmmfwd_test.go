package rwr

import (
	"testing"

	"repro/internal/graph"
)

// TestProximityVectorBatchBitIdentical is the forward tier's contract:
// every column of the SpMM-batched power method — vector, iteration count
// and residual — is bit-identical to a scalar ProximityVectorParallel run,
// across graph families, batch widths {1,2,4,16} and worker counts. This
// is what lets the engine batch its exact fallbacks without perturbing a
// single membership decision or committed exact state.
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
					res, err := ProximityVectorParallel(g, u, p, 1)
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
						if got[j].Iterations != want[j].Iterations {
							t.Fatalf("width=%d workers=%d col=%d: %d iterations, scalar did %d",
								width, workers, j, got[j].Iterations, want[j].Iterations)
						}
						if got[j].Residual != want[j].Residual {
							t.Fatalf("width=%d workers=%d col=%d: residual %g, scalar %g",
								width, workers, j, got[j].Residual, want[j].Residual)
						}
						for u := range got[j].Vector {
							if got[j].Vector[u] != want[j].Vector[u] {
								t.Fatalf("width=%d workers=%d col=%d: vector differs at node %d: %g vs %g",
									width, workers, j, u, got[j].Vector[u], want[j].Vector[u])
							}
						}
					}
				}
			}
		})
	}
}

// TestProximityVectorBatchMatchesSolverTolerance: the batched forward
// vectors agree with the sequential scatter-form ProximityVector to within
// the solver tolerance. (On these source-ordered views the iterates are in
// fact bit-identical — see MulTransitionRange; the tolerance covers the one
// real difference, a residual summed flat instead of in blocks, which may
// stop one of the two solvers an iteration later.)
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
				if err != nil {
					t.Fatal(err)
				}
				for v := range want.Vector {
					d := got[j].Vector[v] - want.Vector[v]
					if d < -1e-8 || d > 1e-8 {
						t.Fatalf("origin %d: vector differs at node %d beyond tolerance: %g vs %g",
							u, v, got[j].Vector[v], want.Vector[v])
					}
				}
			}
		})
	}
}
