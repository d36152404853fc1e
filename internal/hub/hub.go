// Package hub implements the hub machinery of §4.1: the paper's degree-based
// hub selection, exact hub proximity vectors, and the rounded hub proximity
// matrix P_H of §4.1.3 together with the storage prediction of Theorem 1 and
// the rounding error bound of Proposition 3.
package hub

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// SelectByDegree implements the paper's hub selection (§4.1.1): the union
// of the B highest in-degree and B highest out-degree nodes.
func SelectByDegree[G graph.View](g G, b int) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, 2*b)
	var hubs []graph.NodeID
	for _, u := range graph.TopByInDegree(g, b) {
		if !seen[u] {
			seen[u] = true
			hubs = append(hubs, u)
		}
	}
	for _, u := range graph.TopByOutDegree(g, b) {
		if !seen[u] {
			seen[u] = true
			hubs = append(hubs, u)
		}
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i] < hubs[j] })
	return hubs
}

// Matrix is the hub proximity matrix P_H of Eq. 7, stored column-sparse
// after the rounding of §4.1.3: entries < ω are dropped, and the rest are
// stored as float32 rounded toward zero. It implements bca.HubProximities.
type Matrix struct {
	n     int
	hubs  []graph.NodeID
	pos   []int32 // node → index into cols, or -1
	cols  []vecmath.Sparse32
	omega float64
	// exact holds the unrounded top-K values of each hub's proximity
	// vector, needed for the index's P̂ columns of hub nodes.
	exactTopK [][]float64
	// droppedL1 is each hub's L1 mass removed by rounding: the entries
	// below ω and what rounding the rest to float32 took off them.
	droppedL1 []float64
}

// BuildOptions configures hub matrix construction.
type BuildOptions struct {
	// Omega is the rounding threshold ω; proximities below it are zeroed
	// (paper default 1e-6; 0 disables rounding).
	Omega float64
	// RWR holds the power-method parameters for the exact hub vectors.
	RWR rwr.Params
	// TopK is how many exact top values per hub vector to retain for the
	// index (the K of Algorithm 1).
	TopK int
	// Workers bounds build parallelism; ≤0 selects GOMAXPROCS.
	Workers int
}

// Build computes the exact proximity vector of every hub with the power
// method (Algorithm 1 line 2), rounds it at ω, and assembles the matrix.
func Build[G graph.View](g G, hubs []graph.NodeID, opts BuildOptions) (*Matrix, error) {
	if err := opts.RWR.Validate(); err != nil {
		return nil, err
	}
	if opts.Omega < 0 {
		return nil, fmt.Errorf("hub: omega must be non-negative, got %g", opts.Omega)
	}
	if opts.TopK <= 0 {
		return nil, fmt.Errorf("hub: TopK must be positive, got %d", opts.TopK)
	}
	for i := 1; i < len(hubs); i++ {
		if hubs[i] <= hubs[i-1] {
			return nil, fmt.Errorf("hub: hub list must be strictly sorted")
		}
	}
	m := &Matrix{
		n:         g.N(),
		hubs:      append([]graph.NodeID(nil), hubs...),
		pos:       make([]int32, g.N()),
		cols:      make([]vecmath.Sparse32, len(hubs)),
		omega:     opts.Omega,
		exactTopK: make([][]float64, len(hubs)),
		droppedL1: make([]float64, len(hubs)),
	}
	for i := range m.pos {
		m.pos[i] = -1
	}
	for i, h := range hubs {
		if int(h) < 0 || int(h) >= g.N() {
			return nil, fmt.Errorf("hub: node %d out of range [0,%d)", h, g.N())
		}
		m.pos[h] = int32(i)
	}

	cols := make([]int, len(hubs))
	for i := range cols {
		cols[i] = i
	}
	if err := computeColumns(m, g, cols, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// computeColumns fills the given column positions of the matrix — exact
// vector via the power method, unrounded top-K, rounding at ω and to float32,
// dropped mass — across a worker pool. Build computes every column with it and
// Rebuild only the affected ones, so the two can never drift apart on the
// per-hub column format (the premise behind Rebuild's bit-for-bit reuse of
// unaffected columns). A free function because Go methods cannot carry
// type parameters.
func computeColumns[G graph.View](m *Matrix, g G, cols []int, opts BuildOptions) error {
	return vecmath.ForEach(len(cols), opts.Workers, func(_, c int) error {
		i := cols[c]
		res, err := rwr.ProximityVector(g, m.hubs[i], opts.RWR)
		if err != nil {
			return fmt.Errorf("hub %d: %w", m.hubs[i], err)
		}
		m.exactTopK[i] = vecmath.TopKValues(res.Vector, opts.TopK)
		full := vecmath.GatherSparse(res.Vector, 0)
		rounded := full.Compact(opts.Omega)
		col, lost := vecmath.Round32(rounded)
		m.droppedL1[i] = full.L1() - rounded.L1() + lost
		m.cols[i] = col
		return nil
	})
}

// IsHub implements bca.HubProximities. Nodes beyond the matrix's node
// range (added to the graph after the matrix was built) are never hubs.
func (m *Matrix) IsHub(v graph.NodeID) bool {
	return int(v) < len(m.pos) && m.pos[v] >= 0
}

// NumHubs implements bca.HubProximities.
func (m *Matrix) NumHubs() int { return len(m.hubs) }

// ScatterHub implements bca.HubProximities: dst += scale · p_h (rounded).
func (m *Matrix) ScatterHub(dst []float64, h graph.NodeID, scale float64) {
	p := m.pos[h]
	if p < 0 {
		panic(fmt.Sprintf("hub: node %d is not a hub", h))
	}
	m.cols[p].ScatterInto(dst, scale)
}

// Hubs returns the sorted hub node list (shared storage; do not modify).
func (m *Matrix) Hubs() []graph.NodeID { return m.hubs }

// Omega returns the rounding threshold the matrix was built with.
func (m *Matrix) Omega() float64 { return m.omega }

// ExactTopK returns the unrounded top-K proximity values of hub h,
// descending; the index uses these as the P̂ column of hub nodes.
func (m *Matrix) ExactTopK(h graph.NodeID) []float64 {
	p := m.pos[h]
	if p < 0 {
		panic(fmt.Sprintf("hub: node %d is not a hub", h))
	}
	return m.exactTopK[p]
}

// DroppedMass returns the L1 proximity mass the rounding removed from hub
// h's column — the realized counterpart of Proposition 3's bound, plus what
// storing the kept entries as float32 took off them.
func (m *Matrix) DroppedMass(h graph.NodeID) float64 {
	p := m.pos[h]
	if p < 0 {
		panic(fmt.Sprintf("hub: node %d is not a hub", h))
	}
	return m.droppedL1[p]
}

// NNZ returns the total number of stored (rounded) proximity entries.
func (m *Matrix) NNZ() int {
	total := 0
	for _, c := range m.cols {
		total += c.NNZ()
	}
	return total
}

// Bytes returns the approximate in-memory footprint of the rounded matrix
// payload, used for the Table 2 space accounting.
func (m *Matrix) Bytes() int64 {
	var b int64
	for _, c := range m.cols {
		b += c.Bytes()
	}
	return b
}

// UnroundedBytes estimates the footprint the matrix would have had without
// rounding: hubs store dense vectors in the brute-force layout (8 bytes per
// node per hub), matching Table 2's "no rounding" row.
func (m *Matrix) UnroundedBytes() int64 {
	return int64(len(m.hubs)) * int64(m.n) * 8
}

// PredictHubBytes evaluates Theorem 1's storage estimate for the hub
// proximity matrix: (1−β)^{1/β} · |H| · ω^{−1/β} · n^{1−1/β} entries, at 12
// bytes per stored entry (4-byte index + 8-byte value). β is the power-law
// exponent of sorted proximity values (the paper uses β = 0.76 after [4]).
func PredictHubBytes(n, numHubs int, omega, beta float64) int64 {
	if beta <= 0 || beta >= 1 || omega <= 0 || n == 0 {
		return int64(numHubs) * int64(n) * 12 // degenerate: no compression
	}
	perHub := math.Pow(1-beta, 1/beta) * math.Pow(omega, -1/beta) * math.Pow(float64(n), 1-1/beta)
	if perHub > float64(n) {
		perHub = float64(n)
	}
	return int64(perHub * float64(numHubs) * 12)
}

// PredictIndexBytes evaluates Theorem 1's total index estimate: O(K·n) for
// the lower-bound matrix (8 bytes per value) plus the hub matrix estimate.
func PredictIndexBytes(n, k, numHubs int, omega, beta float64) int64 {
	return int64(k)*int64(n)*8 + PredictHubBytes(n, numHubs, omega, beta)
}

// RoundingErrorBound evaluates Proposition 3: for a power-law proximity
// profile with exponent β, the L1 error that rounding at ω can introduce
// into any p^t is at most 1 − ((1−β)/(ω·n))^{1/β − 1}.
func RoundingErrorBound(n int, omega, beta float64) float64 {
	if omega <= 0 || n == 0 {
		return 0
	}
	if beta <= 0 || beta >= 1 {
		return 1
	}
	x := (1 - beta) / (omega * float64(n))
	bound := 1 - math.Pow(x, 1/beta-1)
	if bound < 0 {
		return 0
	}
	if bound > 1 {
		return 1
	}
	return bound
}

// Rebuild produces the hub matrix for an edited graph by recomputing ONLY
// the given affected hubs' proximity vectors and reusing every other hub's
// rounded column, exact top-K list and dropped-mass record from the old
// matrix. A hub is affected by an edit batch exactly when it sends
// random-walk mass through an edited source (p_h(s) > 0 for some edited
// source s) — every other hub's proximity vector is untouched by the edit,
// so recomputing it would reproduce the stored values bit for bit.
//
// Hub membership is preserved (same hubs, same order). The graph may have
// grown: new nodes are never hubs, and unaffected hubs cannot reach them
// (an edge into a new node is an edit, which would have made every hub
// reaching its source affected).
//
// The old matrix's storage may be read-only (zero-copy out of an mmap'd
// index image): Rebuild is strictly copy-on-write — reused columns are
// shared by reference, recomputed ones land in fresh slices, and nothing
// is ever written into the old matrix's backing arrays.
func Rebuild[G graph.View](g G, old *Matrix, affected []graph.NodeID, opts BuildOptions) (*Matrix, error) {
	if err := opts.RWR.Validate(); err != nil {
		return nil, err
	}
	if opts.TopK <= 0 {
		return nil, fmt.Errorf("hub: TopK must be positive, got %d", opts.TopK)
	}
	if g.N() < old.n {
		return nil, fmt.Errorf("hub: rebuild graph has %d nodes, matrix covers %d (graphs only grow)", g.N(), old.n)
	}
	m := &Matrix{
		n:         g.N(),
		hubs:      old.hubs,
		pos:       make([]int32, g.N()),
		cols:      append([]vecmath.Sparse32(nil), old.cols...),
		omega:     old.omega,
		exactTopK: append([][]float64(nil), old.exactTopK...),
		droppedL1: append([]float64(nil), old.droppedL1...),
	}
	for i := range m.pos {
		m.pos[i] = -1
	}
	for i, h := range m.hubs {
		m.pos[h] = int32(i)
	}

	cols := make([]int, 0, len(affected))
	for _, h := range affected {
		p := int32(-1)
		if int(h) < len(m.pos) {
			p = m.pos[h]
		}
		if p < 0 {
			return nil, fmt.Errorf("hub: affected node %d is not a hub", h)
		}
		cols = append(cols, int(p))
	}
	if err := computeColumns(m, g, cols, opts); err != nil {
		return nil, err
	}
	return m, nil
}
