// Package partition assigns every node of a graph to exactly one of P
// shards, deterministically: the same inputs always produce the same
// assignment, on every machine, so a partition map computed at index-build
// time can be re-derived (or verified) by every shard and by the query
// coordinator independently. The map is tiny — a strategy tag plus at most
// P+1 boundaries — and is serialized alongside each per-shard index slice
// (see lbindex), so a slice file is self-describing: it knows which shard
// it is, out of how many, under which assignment.
//
// Three strategies are provided:
//
//   - Hash: shard(u) = mix64(u, seed) mod P. Spreads hot node-id ranges
//     (generators and crawlers both emit correlated ids) evenly, at the
//     price of non-contiguous ownership.
//   - Range: P near-equal contiguous node-id ranges. Ownership is an
//     interval, so per-shard rows are one dense slab and coordinator
//     merges are concatenations.
//   - Balanced: contiguous ranges again, but boundaries are placed so each
//     shard owns ≈ the same total DEGREE (out+in edges), not the same node
//     count — the balance-aware option for skewed graphs, where the heavy
//     head of a power-law degree sequence would otherwise overload shard 0.
//
// All strategies cover [0, n) exactly once; Validate checks this in O(P)
// (and tests re-check it exhaustively).
package partition

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Strategy selects the node→shard assignment rule.
type Strategy int

const (
	// Hash assigns by a seeded 64-bit mix of the node id.
	Hash Strategy = iota
	// Range assigns P near-equal contiguous node-id ranges.
	Range
	// Balanced assigns contiguous ranges with ≈ equal total degree.
	Balanced
)

// String returns the strategy name accepted by ParseStrategy.
func (s Strategy) String() string {
	switch s {
	case Hash:
		return "hash"
	case Range:
		return "range"
	case Balanced:
		return "balanced"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists the valid -strategy values, for CLI help messages.
func Strategies() []string { return []string{"hash", "range", "balanced"} }

// ParseStrategy decodes a CLI strategy name.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "hash":
		return Hash, nil
	case "range":
		return Range, nil
	case "balanced":
		return Balanced, nil
	default:
		return 0, fmt.Errorf("partition: unknown strategy %q (valid: hash, range, balanced)", name)
	}
}

// Map is one deterministic assignment of n nodes to p shards. Immutable
// after construction and safe for concurrent use.
type Map struct {
	n        int
	p        int
	strategy Strategy
	// seed perturbs the Hash mix so different deployments can decorrelate
	// their assignments; ignored by the contiguous strategies.
	seed uint64
	// bounds holds the p+1 range boundaries of the contiguous strategies
	// (shard s owns [bounds[s], bounds[s+1])); nil for Hash.
	bounds []int32
}

// NewHash builds a seeded hash partition of n nodes into p shards.
func NewHash(n, p int, seed uint64) (*Map, error) {
	if err := checkShape(n, p); err != nil {
		return nil, err
	}
	return &Map{n: n, p: p, strategy: Hash, seed: seed}, nil
}

// NewRange builds a contiguous partition of n nodes into p near-equal
// ranges (the first n mod p shards own one extra node).
func NewRange(n, p int) (*Map, error) {
	if err := checkShape(n, p); err != nil {
		return nil, err
	}
	bounds := make([]int32, p+1)
	base, extra := n/p, n%p
	pos := 0
	for s := 0; s < p; s++ {
		bounds[s] = int32(pos)
		pos += base
		if s < extra {
			pos++
		}
	}
	bounds[p] = int32(n)
	return &Map{n: n, p: p, strategy: Range, bounds: bounds}, nil
}

// NewBalanced builds a contiguous partition whose boundaries equalize the
// total degree (out+in edges, a proxy for both index-row weight and
// decision cost) across shards, via the greedy prefix-sum cut: each
// boundary advances until the running weight reaches the next multiple of
// total/p. Deterministic for a given graph.
func NewBalanced(g graph.View, p int) (*Map, error) {
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
	// but an inconsistent View could break the prefix logic.
	m := &Map{n: n, p: p, strategy: Balanced, bounds: bounds}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// New builds a map with the named strategy — the one constructor CLI and
// bench front ends share. g is only read by Balanced (its node count must
// be n); seed only by Hash.
func New(strategy Strategy, g graph.View, n, p int, seed uint64) (*Map, error) {
	switch strategy {
	case Hash:
		return NewHash(n, p, seed)
	case Range:
		return NewRange(n, p)
	case Balanced:
		if g == nil {
			return nil, fmt.Errorf("partition: balanced strategy needs the graph")
		}
		if g.N() != n {
			return nil, fmt.Errorf("partition: balanced strategy over %d nodes, graph has %d", n, g.N())
		}
		return NewBalanced(g, p)
	default:
		return nil, fmt.Errorf("partition: unknown strategy %d", int(strategy))
	}
}

// FromParts reconstructs a Map from its serialized fields (the inverse of
// Parts), validating shape and coverage.
func FromParts(strategy Strategy, n, p int, seed uint64, bounds []int32) (*Map, error) {
	if err := checkShape(n, p); err != nil {
		return nil, err
	}
	m := &Map{n: n, p: p, strategy: strategy, seed: seed}
	switch strategy {
	case Hash:
		if len(bounds) != 0 {
			return nil, fmt.Errorf("partition: hash map carries %d bounds, want none", len(bounds))
		}
	case Range, Balanced:
		m.bounds = append([]int32(nil), bounds...)
	default:
		return nil, fmt.Errorf("partition: unknown strategy %d", int(strategy))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Parts returns the serializable fields of the map. The returned bounds
// slice aliases internal storage and must not be modified.
func (m *Map) Parts() (strategy Strategy, n, p int, seed uint64, bounds []int32) {
	return m.strategy, m.n, m.p, m.seed, m.bounds
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

// Strategy returns the assignment rule.
func (m *Map) Strategy() Strategy { return m.strategy }

// Seed returns the hash seed (0 for contiguous strategies).
func (m *Map) Seed() uint64 { return m.seed }

// mix64 is SplitMix64's finalizer: a fixed, platform-independent 64-bit
// mixing function, so hash assignments are stable across builds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Owner returns the shard owning node u. Nodes at or beyond N() (fresh
// identifiers introduced by growth) are owned too: hash assigns them like
// any other id, the contiguous strategies fold them into the last shard —
// see Grow.
func (m *Map) Owner(u graph.NodeID) int {
	if u < 0 {
		panic(fmt.Sprintf("partition: negative node id %d", u))
	}
	if m.strategy == Hash {
		return int(mix64(uint64(u)^m.seed) % uint64(m.p))
	}
	if int(u) >= m.n {
		return m.p - 1
	}
	// bounds is short (P+1); binary search beats a scan from P ≈ 8 up and
	// is never worse below that.
	s := sort.Search(m.p, func(s int) bool { return m.bounds[s+1] > int32(u) })
	return s
}

// OwnedCount returns the number of nodes shard s owns. O(1) for contiguous
// strategies, O(n) for hash.
func (m *Map) OwnedCount(s int) int {
	m.checkShard(s)
	if m.bounds != nil {
		return int(m.bounds[s+1] - m.bounds[s])
	}
	count := 0
	for u := 0; u < m.n; u++ {
		if m.Owner(graph.NodeID(u)) == s {
			count++
		}
	}
	return count
}

// Owned materializes the ascending list of nodes shard s owns.
func (m *Map) Owned(s int) []graph.NodeID {
	m.checkShard(s)
	if m.bounds != nil {
		lo, hi := m.bounds[s], m.bounds[s+1]
		out := make([]graph.NodeID, 0, hi-lo)
		for u := lo; u < hi; u++ {
			out = append(out, u)
		}
		return out
	}
	var out []graph.NodeID
	for u := 0; u < m.n; u++ {
		if m.Owner(graph.NodeID(u)) == s {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

func (m *Map) checkShard(s int) {
	if s < 0 || s >= m.p {
		panic(fmt.Sprintf("partition: shard %d outside [0,%d)", s, m.p))
	}
}

// Grow returns a map covering n2 ≥ N() nodes under the same assignment for
// existing ids: hash maps are unchanged (the mix covers any id), contiguous
// maps extend the last shard's range. Growth therefore never migrates a
// node between shards — the invariant the serving layer's incremental
// maintenance relies on.
func (m *Map) Grow(n2 int) (*Map, error) {
	if n2 < m.n {
		return nil, fmt.Errorf("partition: cannot shrink %d → %d nodes", m.n, n2)
	}
	if n2 == m.n {
		return m, nil
	}
	g := &Map{n: n2, p: m.p, strategy: m.strategy, seed: m.seed}
	if m.bounds != nil {
		g.bounds = append([]int32(nil), m.bounds...)
		g.bounds[m.p] = int32(n2)
	}
	return g, nil
}

// Equal reports whether two maps describe the same assignment fields.
func (m *Map) Equal(o *Map) bool {
	if m.n != o.n || m.p != o.p || m.strategy != o.strategy || m.seed != o.seed || len(m.bounds) != len(o.bounds) {
		return false
	}
	for i := range m.bounds {
		if m.bounds[i] != o.bounds[i] {
			return false
		}
	}
	return true
}

// Validate checks that the map covers [0, n) exactly once: shard count and
// node count positive, and (for contiguous strategies) boundaries
// non-decreasing from 0 to n. Hash coverage is structural — every id has
// exactly one mix value — so only the shape needs checking.
func (m *Map) Validate() error {
	if err := checkShape(m.n, m.p); err != nil {
		return err
	}
	switch m.strategy {
	case Hash:
		if m.bounds != nil {
			return fmt.Errorf("partition: hash map carries bounds")
		}
	case Range, Balanced:
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
	default:
		return fmt.Errorf("partition: unknown strategy %d", int(m.strategy))
	}
	return nil
}

// String summarizes the map for logs.
func (m *Map) String() string {
	return fmt.Sprintf("partition{%s n=%d P=%d}", m.strategy, m.n, m.p)
}
