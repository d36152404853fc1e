// Package partition assigns every node of a graph to exactly one of P
// shards, deterministically: the same inputs always produce the same
// assignment, on every machine, so a partition map computed at index-build
// time can be re-derived (or verified) by every shard and by the query
// coordinator independently. Every shard owns one contiguous node-id range,
// so its rows are one dense slab and coordinator merges are concatenations.
// The map is tiny — P+1 boundaries — and is serialized alongside each
// per-shard index slice (see lbindex), so a slice file is self-describing: it
// knows which shard it is, out of how many, under which assignment.
//
// NewBalanced places the boundaries so each shard owns ≈ the same total
// DEGREE (out+in edges), not the same node count: on a skewed graph the
// heavy head of a power-law degree sequence would otherwise overload shard
// 0. FromParts rebuilds a map from stored boundaries, wherever they were
// cut. Every map covers [0, n) exactly once; Validate checks this in O(P)
// (and tests re-check it exhaustively).
package partition

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// ErrHash refuses a map stored with strategy 0, the removed hash
// partitioner's, whose shards owned scattered nodes rather than one range
// each.
var ErrHash = errors.New("partition: the hash strategy was removed; rebuild the shard slices with rtkindex -partition")

// Map is one deterministic assignment of n nodes to p shards. Immutable
// after construction and safe for concurrent use.
type Map struct {
	n int
	p int
	// bounds holds the p+1 range boundaries: shard s owns
	// [bounds[s], bounds[s+1]).
	bounds []int32
}

// NewBalanced builds a contiguous partition whose boundaries equalize the
// total degree (out+in edges, a proxy for both index-row weight and
// decision cost) across shards, via the greedy prefix-sum cut: each
// boundary advances until the running weight reaches the next multiple of
// total/p. Deterministic for a given graph.
func NewBalanced(g *graph.Graph, p int) (*Map, error) {
	n := g.N()
	if err := checkShape(n, p); err != nil {
		return nil, err
	}
	bounds := make([]int32, p+1)
	total := 0.0
	for u := 0; u < n; u++ {
		total += float64(g.OutDegree(graph.NodeID(u)) + g.InDegree(graph.NodeID(u)))
	}
	acc, next := 0.0, 1
	for u := 0; u < n && next < p; u++ {
		acc += float64(g.OutDegree(graph.NodeID(u)) + g.InDegree(graph.NodeID(u)))
		for next < p && acc >= total*float64(next)/float64(p) {
			// Never let a shard start past the nodes that remain: every
			// trailing shard keeps at least one candidate boundary slot.
			cut := u + 1
			if max := n - (p - next); cut > max {
				cut = max
			}
			bounds[next] = int32(cut)
			next++
		}
	}
	for ; next < p; next++ {
		bounds[next] = int32(n - (p - next))
	}
	bounds[p] = int32(n)
	// Boundaries must be non-decreasing; the clamps above keep them so,
	// and Validate holds them to it.
	m := &Map{n: n, p: p, bounds: bounds}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// FromParts reconstructs a Map from its serialized fields (the inverse of
// Parts), validating shape and coverage.
func FromParts(n, p int, bounds []int32) (*Map, error) {
	m := &Map{n: n, p: p, bounds: append([]int32(nil), bounds...)}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Parts returns the serializable fields of the map. The returned bounds
// slice aliases internal storage and must not be modified.
func (m *Map) Parts() (n, p int, bounds []int32) {
	return m.n, m.p, m.bounds
}

func checkShape(n, p int) error {
	if n <= 0 {
		return fmt.Errorf("partition: node count must be positive, got %d", n)
	}
	if p <= 0 {
		return fmt.Errorf("partition: shard count must be positive, got %d", p)
	}
	if p > n {
		return fmt.Errorf("partition: cannot split %d nodes into %d shards", n, p)
	}
	return nil
}

// N returns the number of nodes covered.
func (m *Map) N() int { return m.n }

// P returns the number of shards.
func (m *Map) P() int { return m.p }

// Range returns the node range [lo, hi) shard s owns; the last shard's
// range also takes every id a Grow added.
func (m *Map) Range(s int) (lo, hi int) {
	if s < 0 || s >= m.p {
		panic(fmt.Sprintf("partition: shard %d outside [0,%d)", s, m.p))
	}
	return int(m.bounds[s]), int(m.bounds[s+1])
}

// Grow returns a map covering n2 ≥ N() nodes under the same assignment for
// existing ids: the last shard's range extends to n2. Growth therefore never
// migrates a node between shards — the invariant the serving layer's
// incremental maintenance relies on.
func (m *Map) Grow(n2 int) (*Map, error) {
	if n2 < m.n {
		return nil, fmt.Errorf("partition: cannot shrink %d → %d nodes", m.n, n2)
	}
	if n2 == m.n {
		return m, nil
	}
	g := &Map{n: n2, p: m.p, bounds: append([]int32(nil), m.bounds...)}
	g.bounds[m.p] = int32(n2)
	return g, nil
}

// Equal reports whether two maps describe the same assignment fields.
func (m *Map) Equal(o *Map) bool {
	return m.n == o.n && m.p == o.p && slices.Equal(m.bounds, o.bounds)
}

// Validate checks that the map covers [0, n) exactly once: shard count and
// node count positive and boundaries non-decreasing from
// 0 to n.
func (m *Map) Validate() error {
	if err := checkShape(m.n, m.p); err != nil {
		return err
	}
	if len(m.bounds) != m.p+1 {
		return fmt.Errorf("partition: %d bounds for %d shards, want %d", len(m.bounds), m.p, m.p+1)
	}
	if m.bounds[0] != 0 || m.bounds[m.p] != int32(m.n) {
		return fmt.Errorf("partition: bounds span [%d,%d], want [0,%d]", m.bounds[0], m.bounds[m.p], m.n)
	}
	for s := 0; s < m.p; s++ {
		if m.bounds[s] > m.bounds[s+1] {
			return fmt.Errorf("partition: bounds decrease at shard %d (%d > %d)", s, m.bounds[s], m.bounds[s+1])
		}
	}
	return nil
}

// String summarizes the map for logs.
func (m *Map) String() string {
	return fmt.Sprintf("partition{n=%d P=%d}", m.n, m.p)
}
