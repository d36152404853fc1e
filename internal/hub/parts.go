package hub

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// Parts exposes the raw components of the matrix for serialization by the
// index layer. The returned slices share storage with the matrix.
func (m *Matrix) Parts() (n int, hubs []graph.NodeID, cols []vecmath.Sparse32, exactTopK [][]float64, dropped []float64, omega float64) {
	return m.n, m.hubs, m.cols, m.exactTopK, m.droppedL1, m.omega
}

// FromParts reassembles a Matrix from serialized components (the inverse of
// Parts). It validates shape and ordering.
func FromParts(n int, hubs []graph.NodeID, cols []vecmath.Sparse32, exactTopK [][]float64, dropped []float64, omega float64) (*Matrix, error) {
	if len(hubs) != len(cols) || len(hubs) != len(exactTopK) || len(hubs) != len(dropped) {
		return nil, fmt.Errorf("hub: FromParts component lengths disagree: %d hubs, %d cols, %d topK, %d dropped",
			len(hubs), len(cols), len(exactTopK), len(dropped))
	}
	m := &Matrix{
		n:         n,
		hubs:      hubs,
		pos:       make([]int32, n),
		cols:      cols,
		omega:     omega,
		exactTopK: exactTopK,
		droppedL1: dropped,
	}
	for i := range m.pos {
		m.pos[i] = -1
	}
	for i, h := range hubs {
		if int(h) < 0 || int(h) >= n {
			return nil, fmt.Errorf("hub: FromParts hub %d out of range [0,%d)", h, n)
		}
		if i > 0 && hubs[i-1] >= h {
			return nil, fmt.Errorf("hub: FromParts hub list not strictly sorted")
		}
		m.pos[h] = int32(i)
	}
	for i, c := range cols {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("hub: FromParts column %d: %w", i, err)
		}
		// Column entries are scattered into dense length-n vectors
		// (ScatterHub); an out-of-range index would panic there.
		if len(c.Idx) > 0 && (c.Idx[0] < 0 || int(c.Idx[len(c.Idx)-1]) >= n) {
			return nil, fmt.Errorf("hub: FromParts column %d has indices outside [0,%d)", i, n)
		}
	}
	return m, nil
}
