package rwr

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// MaxMatrixNodes bounds the size of graphs for which ProximityMatrix will
// materialize the full n×n dense matrix. 46341² float64 ≈ 16GB; we stay far
// below that. Brute-force baselines only ever run on small graphs.
const MaxMatrixNodes = 20000

// ProximityMatrix computes the entire proximity matrix P column by column
// with the power method, parallelized over columns. Column u of the result
// is p_u. This is the heart of the brute-force baselines of §3 and Fig. 8
// and is deliberately expensive: O(n·m) per full build.
//
// workers ≤ 0 selects GOMAXPROCS. A failure names the lowest failing column,
// the same one on every run.
func ProximityMatrix(g *graph.Graph, p Params, workers int) ([][]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if n > MaxMatrixNodes {
		return nil, fmt.Errorf("rwr: refusing to materialize %d×%d proximity matrix (limit %d nodes)", n, n, MaxMatrixNodes)
	}
	cols := make([][]float64, n)
	err := vecmath.ForEach(n, workers, func(_, u int) error {
		res, err := ProximityVector(g, graph.NodeID(u), p)
		if err != nil {
			return fmt.Errorf("rwr: column %d: %w", u, err)
		}
		cols[u] = res.Vector
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// MatrixRow extracts row q of a column-major proximity matrix: the
// proximities from every node to q. Used in tests to cross-check PMPN
// (Theorem 2) against the direct definition.
func MatrixRow(cols [][]float64, q graph.NodeID) []float64 {
	row := make([]float64, len(cols))
	for u, col := range cols {
		row[u] = col[q]
	}
	return row
}
