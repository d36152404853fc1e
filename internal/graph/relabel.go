package graph

import (
	"fmt"
	"sort"
)

// Permutation is a node relabeling: perm[external] = internal. The external
// identifier space is what callers (HTTP API, CLI, edge-list files) speak;
// the internal space is the storage order of the CSR arrays. A cache-aware
// relabeling (degree-descending) is applied at index build time and
// carried alongside the index, so external identifiers never change.
type Permutation []NodeID

// Validate checks that p is a bijection on [0, n).
func (p Permutation) Validate(n int) error {
	if len(p) != n {
		return fmt.Errorf("graph: permutation covers %d nodes, graph has %d", len(p), n)
	}
	seen := make([]bool, n)
	for ext, in := range p {
		if in < 0 || int(in) >= n {
			return fmt.Errorf("graph: permutation maps %d to out-of-range %d", ext, in)
		}
		if seen[in] {
			return fmt.Errorf("graph: permutation maps two nodes to %d", in)
		}
		seen[in] = true
	}
	return nil
}

// Inverse returns the inverse permutation: inv[internal] = external.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for ext, in := range p {
		inv[in] = NodeID(ext)
	}
	return inv
}

// IsIdentity reports whether p maps every node to itself (or is empty).
func (p Permutation) IsIdentity() bool {
	for ext, in := range p {
		if NodeID(ext) != in {
			return false
		}
	}
	return true
}

// IdentityPermutation returns the identity relabeling on n nodes.
func IdentityPermutation(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = NodeID(i)
	}
	return p
}

// DegreeOrderPermutation assigns internal identifiers in descending total
// (in+out) degree, ties broken by ascending external id. High-degree hub
// rows — touched by almost every PMPN sweep — end up packed at the front of
// the iterate vector and the CSR arrays, so the hot working set spans the
// fewest cache lines.
func DegreeOrderPermutation(g *Graph) Permutation {
	n := g.N()
	order := make([]NodeID, n)
	for i := range order {
		order[i] = NodeID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := order[a], order[b]
		da := g.OutDegree(ua) + g.InDegree(ua)
		db := g.OutDegree(ub) + g.InDegree(ub)
		if da != db {
			return da > db
		}
		return ua < ub
	})
	perm := make(Permutation, n)
	for rank, u := range order {
		perm[u] = NodeID(rank)
	}
	return perm
}

// Extend pads p with identity labels up to n nodes: the relabeling a grown
// graph pairs with an index whose permutation predates the new nodes.
// Identifiers past the stored permutation keep identity labels — exactly the
// convention the lbindex translation boundary applies — so the padded
// permutation is still a bijection on [0, n). Errors if p already covers
// more nodes than n (the graph/index pair is inconsistent, not grown).
func (p Permutation) Extend(n int) (Permutation, error) {
	if len(p) > n {
		return nil, fmt.Errorf("graph: permutation covers %d nodes, graph has only %d", len(p), n)
	}
	if len(p) == n {
		return p, nil
	}
	out := make(Permutation, n)
	copy(out, p)
	for i := len(p); i < n; i++ {
		out[i] = NodeID(i)
	}
	return out, nil
}

// ApplyPermutation returns a new Graph storing node u at position perm[u]:
// the relabeled twin of g, with identical topology and weights. Used once
// at index build (or load) time; query-path translation happens at the API
// boundary, not here.
func ApplyPermutation(g *Graph, perm Permutation) (*Graph, error) {
	if err := perm.Validate(g.N()); err != nil {
		return nil, err
	}
	b := NewBuilder(g.N())
	for u := NodeID(0); int(u) < g.N(); u++ {
		nbrs := g.OutNeighbors(u)
		ws := g.OutWeightsOf(u)
		for i, v := range nbrs {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			b.AddWeightedEdge(perm[u], perm[v], w)
		}
	}
	// g has no dangling nodes (its own policy ran at build), so the
	// relabeled twin has none either.
	pg, _, err := b.Build(DanglingReject)
	return pg, err
}
