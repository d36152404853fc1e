// Package graph provides the directed-graph substrate used by every other
// module in this repository: a compact CSR (compressed sparse row)
// representation with both out- and in-adjacency, optional edge weights,
// configurable handling of dangling nodes, and edge-list I/O.
//
// The RWR transition matrix of the paper is never materialized; instead the
// Graph exposes exactly the quantities needed to apply it: for an edge j→i
// the transition probability is weight(j,i)/TotalOutWeight(j), which for
// unweighted graphs reduces to 1/OutDegree(j) (paper §2.1).
package graph

import (
	"errors"
	"fmt"
)

// RowBlock is the row granularity shared by the CSR's degree order and the
// rwr solvers: rows are grouped into aligned blocks of RowBlock rows (the
// last block holds what is left of n). Each CSR keeps a visit order of every
// block's rows sorted by out-degree (DegreeRuns); the solvers reduce their
// L1 residual per block and cut worker segments at block boundaries, so a
// block never straddles two workers. 256 rows (≈ a few thousand flops on
// typical degrees) amortizes the synchronization per block comfortably.
const RowBlock = 256

// NodeID identifies a node. Nodes are dense integers in [0, N).
// int32 keeps adjacency arrays compact: a 100M-edge graph costs 400MB
// per direction instead of 800MB.
type NodeID = int32

// MinNormalWeight is the smallest edge weight the graph layer accepts:
// the smallest positive normal float64 (0x1p-1022). Subnormal weights are
// rejected because a column whose weights sum into the subnormal range has
// an inverse normalizer that overflows to +Inf, which would turn the
// node's transition column into NaN and silently poison every downstream
// proximity score. Because IEEE addition of positive normals rounds to a
// value no smaller than either operand, per-edge enforcement guarantees
// every TotalOutWeight is a normal number and every inverse normalizer is
// finite.
const MinNormalWeight = 0x1p-1022

// DanglingPolicy selects how nodes without outgoing edges are handled when a
// Graph is built. The paper (footnote 1, §2.1) permits either deleting them
// or redirecting them to a sink; we implement both plus a self-loop variant,
// all of which preserve column stochasticity of the transition matrix.
type DanglingPolicy int

const (
	// DanglingSelfLoop gives each dangling node a self-loop. A random walk
	// reaching such a node stays there until it restarts. This is the
	// default because it keeps node identifiers stable.
	DanglingSelfLoop DanglingPolicy = iota
	// DanglingSharedSink appends one extra node that self-loops and makes
	// every dangling node point to it. The sink absorbs lost walks; node
	// count grows by one when at least one dangling node exists.
	DanglingSharedSink
	// DanglingPrune iteratively removes dangling nodes (removal can create
	// new dangling nodes, so the process repeats to a fixed point) and
	// compacts the identifier space. Use Build's returned mapping to
	// translate old identifiers.
	DanglingPrune
	// DanglingReject makes Build fail if any dangling node exists.
	DanglingReject
)

// String returns a human-readable policy name.
func (p DanglingPolicy) String() string {
	switch p {
	case DanglingSelfLoop:
		return "self-loop"
	case DanglingSharedSink:
		return "shared-sink"
	case DanglingPrune:
		return "prune"
	case DanglingReject:
		return "reject"
	default:
		return fmt.Sprintf("DanglingPolicy(%d)", int(p))
	}
}

// Graph is an immutable directed graph in CSR form. Both directions are
// stored so that the RWR operators A·x (needs in-edges or an edge push) and
// Aᵀ·x (needs out-edges) are each a single cache-friendly sweep.
//
// The zero value is an empty graph with no nodes; use a Builder to create
// non-trivial instances.
type Graph struct {
	n int

	// Out-adjacency: out-neighbors of u are outEdges[outIndex[u]:outIndex[u+1]].
	outIndex []int64
	outEdges []NodeID
	// outWeights[e] is the weight of the edge stored at outEdges[e].
	// nil for unweighted graphs (all weights 1).
	outWeights []float64
	// totalOutWeight[u] is the sum of weights of u's out-edges; for
	// unweighted graphs it equals the out-degree. It is the normalizer of
	// the column of the transition matrix belonging to u.
	totalOutWeight []float64
	// invTotalOutWeight[u] = 1/totalOutWeight[u], precomputed so the matvec
	// kernels multiply instead of dividing per row. Always finite: Build
	// rejects subnormal weights, so every normalizer is a normal number.
	invTotalOutWeight []float64

	// In-adjacency mirror, aligned the same way.
	inIndex   []int64
	inEdges   []NodeID
	inWeights []float64

	// degOrder is a row visit order for the Aᵀ gather: block by block
	// (RowBlock rows each), the block's rows sorted by out-degree, ascending
	// id inside a degree, so the gather can step four equal-degree rows
	// through one loop of fixed trip count (rwr/kernels.go). degRuns holds
	// each block's equal-degree run starts, relative to the block, then the
	// block's length; block b's entries are degRuns[degRunsAt[b]:degRunsAt[b+1]].
	// Built once by assemble: ≈ 4 B/node, plus 4 B per run and per block.
	degOrder  []NodeID
	degRuns   []int32
	degRunsAt []int32

	weighted bool
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges (after dangling-policy edges were
// added, if any).
func (g *Graph) M() int { return len(g.outEdges) }

// Weighted reports whether the graph carries explicit edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outIndex[u+1] - g.outIndex[u])
}

// InDegree returns the number of in-edges of u.
func (g *Graph) InDegree(u NodeID) int {
	return int(g.inIndex[u+1] - g.inIndex[u])
}

// OutNeighbors returns the out-neighbors of u. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) OutNeighbors(u NodeID) []NodeID {
	return g.outEdges[g.outIndex[u]:g.outIndex[u+1]]
}

// InNeighbors returns the in-neighbors of u, strictly ascending by source
// (buildInAdjacency fills them walking sources in order). No kernel's bits
// depend on the order: the forward push walks out-lists in source order
// (rwr/spmmfwd.go), and the backward ball reads in-lists as sets (rwr/ball.go).
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(u NodeID) []NodeID {
	return g.inEdges[g.inIndex[u]:g.inIndex[u+1]]
}

// OutWeightsOf returns the weights aligned with OutNeighbors(u), or nil for
// unweighted graphs. The returned slice aliases internal storage.
func (g *Graph) OutWeightsOf(u NodeID) []float64 {
	if g.outWeights == nil {
		return nil
	}
	return g.outWeights[g.outIndex[u]:g.outIndex[u+1]]
}

// InWeightsOf returns the weights aligned with InNeighbors(u), or nil for
// unweighted graphs. The returned slice aliases internal storage.
func (g *Graph) InWeightsOf(u NodeID) []float64 {
	if g.inWeights == nil {
		return nil
	}
	return g.inWeights[g.inIndex[u]:g.inIndex[u+1]]
}

// TotalOutWeight returns the normalizer of node u's transition-matrix
// column: the sum of u's out-edge weights (== out-degree when unweighted).
func (g *Graph) TotalOutWeight(u NodeID) float64 {
	return g.totalOutWeight[u]
}

// InvTotalOutWeight returns the precomputed reciprocal of TotalOutWeight(u).
// The kernels multiply by it instead of dividing per row; the value is bit
// -identical to 1/TotalOutWeight(u) (IEEE-754 division is exactly rounded,
// hence deterministic) and always finite because Build rejects weights
// below MinNormalWeight.
func (g *Graph) InvTotalOutWeight(u NodeID) float64 {
	return g.invTotalOutWeight[u]
}

// DegreeRuns returns block b's rows — [b·RowBlock, min((b+1)·RowBlock, n)) —
// sorted by out-degree, ascending id inside a degree, and the boundaries of
// their equal-degree runs: run r is rows[runs[r]:runs[r+1]], its rows share
// one out-degree, and runs ascend strictly by degree. Both slices alias
// internal storage and must not be modified.
func (g *Graph) DegreeRuns(b int) (rows []NodeID, runs []int32) {
	lo := b * RowBlock
	return g.degOrder[lo:min(lo+RowBlock, g.n)], g.degRuns[g.degRunsAt[b]:g.degRunsAt[b+1]]
}

// HasEdge reports whether the directed edge u→v exists. It runs a binary
// search over u's (sorted) out-neighbor list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	lo, hi := g.outIndex[u], g.outIndex[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.outEdges[mid] < v:
			lo = mid + 1
		case g.outEdges[mid] > v:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge u→v, or 0 if the edge does not
// exist. Unweighted edges have weight 1.
func (g *Graph) EdgeWeight(u, v NodeID) float64 {
	lo, hi := g.outIndex[u], g.outIndex[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.outEdges[mid] < v:
			lo = mid + 1
		case g.outEdges[mid] > v:
			hi = mid
		default:
			if g.outWeights == nil {
				return 1
			}
			return g.outWeights[mid]
		}
	}
	return 0
}

// Validate performs internal-consistency checks: CSR monotonicity, neighbor
// range, out/in mirror agreement on edge counts, positive weights, absence
// of dangling nodes, and the degree order's invariant (DegreeRuns). It is
// O(n+m) and intended for tests and for verifying graphs loaded from
// external files.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return errors.New("graph: negative node count")
	}
	if len(g.outIndex) != g.n+1 || len(g.inIndex) != g.n+1 {
		return errors.New("graph: CSR index length mismatch")
	}
	if g.outIndex[0] != 0 || g.inIndex[0] != 0 {
		return errors.New("graph: CSR index must start at 0")
	}
	if g.outIndex[g.n] != int64(len(g.outEdges)) || g.inIndex[g.n] != int64(len(g.inEdges)) {
		return errors.New("graph: CSR index must end at edge count")
	}
	if len(g.outEdges) != len(g.inEdges) {
		return fmt.Errorf("graph: out/in edge counts differ: %d vs %d", len(g.outEdges), len(g.inEdges))
	}
	var outSum float64
	for u := 0; u < g.n; u++ {
		if g.outIndex[u] > g.outIndex[u+1] || g.inIndex[u] > g.inIndex[u+1] {
			return fmt.Errorf("graph: non-monotone CSR index at node %d", u)
		}
		if g.outIndex[u+1] == g.outIndex[u] {
			return fmt.Errorf("graph: dangling node %d survived construction", u)
		}
		outSum = 0
		for e := g.outIndex[u]; e < g.outIndex[u+1]; e++ {
			v := g.outEdges[e]
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: out-edge %d→%d out of range", u, v)
			}
			if e > g.outIndex[u] && g.outEdges[e-1] >= v {
				return fmt.Errorf("graph: out-neighbors of %d not strictly sorted", u)
			}
			w := 1.0
			if g.outWeights != nil {
				w = g.outWeights[e]
			}
			if w <= 0 {
				return fmt.Errorf("graph: non-positive weight on edge %d→%d", u, v)
			}
			if w < MinNormalWeight {
				return fmt.Errorf("graph: subnormal weight %g on edge %d→%d", w, u, v)
			}
			outSum += w
		}
		if diff := outSum - g.totalOutWeight[u]; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("graph: cached out-weight of %d is %g, recomputed %g", u, g.totalOutWeight[u], outSum)
		}
		if u < len(g.invTotalOutWeight) && g.invTotalOutWeight[u] != 1/g.totalOutWeight[u] {
			return fmt.Errorf("graph: cached inverse out-weight of %d is %g, recomputed %g", u, g.invTotalOutWeight[u], 1/g.totalOutWeight[u])
		}
		for e := g.inIndex[u]; e < g.inIndex[u+1]; e++ {
			v := g.inEdges[e]
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: in-edge %d←%d out of range", u, v)
			}
			if e > g.inIndex[u] && g.inEdges[e-1] >= v {
				return fmt.Errorf("graph: in-neighbors of %d not strictly sorted", u)
			}
		}
	}
	return g.validateDegreeOrder()
}

// validateDegreeOrder checks DegreeRuns' contract on every block: the rows
// are a permutation of the block's, ids ascend inside a degree, and the runs
// split them exactly where the degree changes, degrees ascending.
func (g *Graph) validateDegreeOrder() error {
	nblocks := (g.n + RowBlock - 1) / RowBlock
	if len(g.degOrder) != g.n || len(g.degRunsAt) != nblocks+1 || g.degRunsAt[0] != 0 || int(g.degRunsAt[nblocks]) != len(g.degRuns) {
		return errors.New("graph: degree order length mismatch")
	}
	for b := 0; b < nblocks; b++ {
		if g.degRunsAt[b] >= g.degRunsAt[b+1] {
			return fmt.Errorf("graph: block %d has no degree runs", b)
		}
		rows, runs := g.DegreeRuns(b)
		lo := NodeID(b * RowBlock)
		seen := make([]bool, len(rows))
		for _, u := range rows {
			if u < lo || int(u-lo) >= len(rows) || seen[u-lo] {
				return fmt.Errorf("graph: degree order of block %d is not a permutation of its rows", b)
			}
			seen[u-lo] = true
		}
		if runs[0] != 0 || int(runs[len(runs)-1]) != len(rows) {
			return fmt.Errorf("graph: degree runs of block %d do not cover it", b)
		}
		for r := 1; r < len(runs); r++ {
			s, e := runs[r-1], runs[r]
			if s >= e {
				return fmt.Errorf("graph: block %d has an empty degree run", b)
			}
			d := g.OutDegree(rows[s])
			if s > 0 && g.OutDegree(rows[s-1]) >= d {
				return fmt.Errorf("graph: degree runs of block %d do not ascend by degree", b)
			}
			for i := s; i < e; i++ {
				if g.OutDegree(rows[i]) != d {
					return fmt.Errorf("graph: degree run of block %d mixes degrees %d and %d", b, d, g.OutDegree(rows[i]))
				}
				if i > s && rows[i-1] >= rows[i] {
					return fmt.Errorf("graph: rows of block %d do not ascend inside degree %d", b, d)
				}
			}
		}
	}
	return nil
}
