package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. It tolerates
// duplicate edges (weights are summed, mirroring multigraph collapse) and
// self-loops, and applies a DanglingPolicy at Build time.
//
// A Builder must not be used concurrently.
type Builder struct {
	n       int
	srcs    []NodeID
	dsts    []NodeID
	weights []float64 // nil until the first weighted edge is added
}

// NewBuilder creates a Builder for a graph with n nodes (identifiers
// 0..n-1). Additional nodes can be introduced implicitly by AddEdge with a
// larger endpoint, or explicitly with EnsureNode.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// EnsureNode grows the node count so that id is a valid node.
func (b *Builder) EnsureNode(id NodeID) {
	if int(id) >= b.n {
		b.n = int(id) + 1
	}
}

// AddEdge records the directed edge u→v with weight 1.
func (b *Builder) AddEdge(u, v NodeID) {
	b.AddWeightedEdge(u, v, 1)
}

// AddWeightedEdge records the directed edge u→v with the given weight.
// Non-positive weights are invalid and reported at Build time.
func (b *Builder) AddWeightedEdge(u, v NodeID, w float64) {
	b.EnsureNode(u)
	b.EnsureNode(v)
	if b.weights == nil && w != 1 {
		// Promote to weighted storage lazily; backfill 1s.
		b.weights = make([]float64, len(b.srcs), cap(b.srcs))
		for i := range b.weights {
			b.weights[i] = 1
		}
	}
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
	if b.weights != nil {
		b.weights = append(b.weights, w)
	}
}

// Build produces the Graph. The remap return value is non-nil only under
// DanglingPrune: remap[old] is the new identifier of old, or -1 if the node
// was pruned.
func (b *Builder) Build(policy DanglingPolicy) (g *Graph, remap []NodeID, err error) {
	srcs, dsts, weights := b.srcs, b.dsts, b.weights
	n := b.n
	if weights != nil {
		for i, w := range weights {
			if w <= 0 {
				return nil, nil, fmt.Errorf("graph: edge %d→%d has non-positive weight %g", srcs[i], dsts[i], w)
			}
			if w < MinNormalWeight {
				// A subnormal weight can sum into a subnormal normalizer whose
				// reciprocal overflows to +Inf and NaN-poisons the transition
				// column; reject it at the door.
				return nil, nil, fmt.Errorf("graph: edge %d→%d has subnormal weight %g (minimum %g)", srcs[i], dsts[i], w, MinNormalWeight)
			}
		}
	}

	if policy == DanglingPrune {
		srcs, dsts, weights, n, remap = pruneDangling(srcs, dsts, weights, n)
	}

	outDeg := make([]int64, n)
	for _, u := range srcs {
		outDeg[u]++
	}

	switch policy {
	case DanglingSelfLoop:
		for u := 0; u < n; u++ {
			if outDeg[u] == 0 {
				srcs = append(srcs, NodeID(u))
				dsts = append(dsts, NodeID(u))
				if weights != nil {
					weights = append(weights, 1)
				}
				outDeg[u]++
			}
		}
	case DanglingSharedSink:
		var dangling []NodeID
		for u := 0; u < n; u++ {
			if outDeg[u] == 0 {
				dangling = append(dangling, NodeID(u))
			}
		}
		if len(dangling) > 0 {
			sink := NodeID(n)
			n++
			outDeg = append(outDeg, 0)
			for _, u := range dangling {
				srcs = append(srcs, u)
				dsts = append(dsts, sink)
				if weights != nil {
					weights = append(weights, 1)
				}
				outDeg[u]++
			}
			srcs = append(srcs, sink)
			dsts = append(dsts, sink)
			if weights != nil {
				weights = append(weights, 1)
			}
			outDeg[sink]++
		}
	case DanglingReject:
		for u := 0; u < n; u++ {
			if outDeg[u] == 0 {
				return nil, nil, fmt.Errorf("graph: node %d has no outgoing edges", u)
			}
		}
	case DanglingPrune:
		// Already handled above; pruneDangling guarantees no dangling nodes.
	default:
		return nil, nil, fmt.Errorf("graph: unknown dangling policy %v", policy)
	}

	g = assemble(srcs, dsts, weights, n)
	return g, remap, nil
}

// pruneDangling iteratively removes nodes with no outgoing edges and remaps
// identifiers densely. Removing a node deletes its incoming edges, which may
// strip another node of all out-edges, so the removal repeats to a fixed
// point.
func pruneDangling(srcs, dsts []NodeID, weights []float64, n int) ([]NodeID, []NodeID, []float64, int, []NodeID) {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	outDeg := make([]int, n)
	for changed := true; changed; {
		changed = false
		for i := range outDeg {
			outDeg[i] = 0
		}
		for i, u := range srcs {
			if alive[u] && alive[dsts[i]] {
				outDeg[u]++
			}
		}
		for u := 0; u < n; u++ {
			if alive[u] && outDeg[u] == 0 {
				alive[u] = false
				changed = true
			}
		}
	}

	remap := make([]NodeID, n)
	next := NodeID(0)
	for u := 0; u < n; u++ {
		if alive[u] {
			remap[u] = next
			next++
		} else {
			remap[u] = -1
		}
	}

	outSrcs := srcs[:0:0]
	outDsts := dsts[:0:0]
	var outWeights []float64
	for i := range srcs {
		u, v := srcs[i], dsts[i]
		if alive[u] && alive[v] {
			outSrcs = append(outSrcs, remap[u])
			outDsts = append(outDsts, remap[v])
			if weights != nil {
				outWeights = append(outWeights, weights[i])
			}
		}
	}
	return outSrcs, outDsts, outWeights, int(next), remap
}

// assemble builds the final CSR structures from an edge list, collapsing
// duplicate (u,v) pairs by summing their weights (unweighted duplicates
// collapse to a single weight-1 edge).
func assemble(srcs, dsts []NodeID, weights []float64, n int) *Graph {
	m := len(srcs)
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if srcs[ia] != srcs[ib] {
			return srcs[ia] < srcs[ib]
		}
		return dsts[ia] < dsts[ib]
	})

	outEdges := make([]NodeID, 0, m)
	var outWeights []float64
	if weights != nil {
		outWeights = make([]float64, 0, m)
	}
	edgeSrc := make([]NodeID, 0, m)
	lastU, lastV := NodeID(-1), NodeID(-1)
	for _, idx := range order {
		u, v := srcs[idx], dsts[idx]
		if u == lastU && v == lastV {
			if outWeights != nil {
				outWeights[len(outWeights)-1] += weights[idx]
			}
			continue
		}
		lastU, lastV = u, v
		edgeSrc = append(edgeSrc, u)
		outEdges = append(outEdges, v)
		if outWeights != nil {
			outWeights = append(outWeights, weights[idx])
		}
	}

	outIndex := make([]int64, n+1)
	for _, u := range edgeSrc {
		outIndex[u+1]++
	}
	for u := 0; u < n; u++ {
		outIndex[u+1] += outIndex[u]
	}

	g := &Graph{
		n:          n,
		outIndex:   outIndex,
		outEdges:   outEdges,
		outWeights: outWeights,
		weighted:   outWeights != nil,
	}
	g.totalOutWeight = make([]float64, n)
	g.invTotalOutWeight = make([]float64, n)
	for u := 0; u < n; u++ {
		if outWeights != nil {
			var s float64
			for e := outIndex[u]; e < outIndex[u+1]; e++ {
				s += outWeights[e]
			}
			g.totalOutWeight[u] = s
		} else {
			g.totalOutWeight[u] = float64(outIndex[u+1] - outIndex[u])
		}
		if w := g.totalOutWeight[u]; w > 0 {
			g.invTotalOutWeight[u] = 1 / w
		}
	}
	g.buildInAdjacency()
	g.buildDegreeOrder()
	return g
}

// buildDegreeOrder sorts each block's rows by out-degree, ascending id inside
// a degree, and records where each equal-degree run starts. A counting sort
// over min(degree, countedDegrees) places every row, stable in id; the rows
// of the last bucket are then sorted stably by their degree.
func (g *Graph) buildDegreeOrder() {
	const countedDegrees = 64
	bucket := func(u NodeID) int { return min(g.OutDegree(u), countedDegrees) }
	nblocks := (g.n + RowBlock - 1) / RowBlock
	g.degOrder = make([]NodeID, g.n)
	g.degRunsAt = make([]int32, nblocks+1)
	for b := 0; b < nblocks; b++ {
		lo := NodeID(b * RowBlock)
		rows := g.degOrder[lo:min(int(lo)+RowBlock, g.n)]
		var at [countedDegrees + 2]int // bucket d's size at d+1, then its start at d
		for i := range rows {
			at[bucket(lo+NodeID(i))+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for i := range rows {
			u := lo + NodeID(i)
			rows[at[bucket(u)]] = u
			at[bucket(u)]++
		}
		slices.SortStableFunc(rows[at[countedDegrees-1]:], func(u, v NodeID) int { return g.OutDegree(u) - g.OutDegree(v) })
		g.degRunsAt[b] = int32(len(g.degRuns))
		for i, u := range rows {
			if i == 0 || g.OutDegree(u) != g.OutDegree(rows[i-1]) {
				g.degRuns = append(g.degRuns, int32(i))
			}
		}
		g.degRuns = append(g.degRuns, int32(len(rows)))
	}
	g.degRunsAt[nblocks] = int32(len(g.degRuns))
}

// buildInAdjacency derives the in-CSR mirror from the out-CSR.
func (g *Graph) buildInAdjacency() {
	m := len(g.outEdges)
	inDeg := make([]int64, g.n+1)
	for _, v := range g.outEdges {
		inDeg[v+1]++
	}
	for i := 0; i < g.n; i++ {
		inDeg[i+1] += inDeg[i]
	}
	g.inIndex = inDeg
	g.inEdges = make([]NodeID, m)
	if g.outWeights != nil {
		g.inWeights = make([]float64, m)
	}
	cursor := make([]int64, g.n)
	copy(cursor, g.inIndex[:g.n])
	for u := 0; u < g.n; u++ {
		for e := g.outIndex[u]; e < g.outIndex[u+1]; e++ {
			v := g.outEdges[e]
			slot := cursor[v]
			cursor[v]++
			g.inEdges[slot] = NodeID(u)
			if g.inWeights != nil {
				g.inWeights[slot] = g.outWeights[e]
			}
		}
	}
}

// FromEdges is a convenience constructor: it builds an unweighted graph with
// n nodes from an edge list using the given dangling policy.
func FromEdges(n int, edges [][2]NodeID, policy DanglingPolicy) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, _, err := b.Build(policy)
	return g, err
}
