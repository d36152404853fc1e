package graph

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarizes structural properties of a graph; used by the experiment
// harness to report workload characteristics next to measured numbers.
type Stats struct {
	Nodes        int
	Edges        int
	Weighted     bool
	AvgOutDegree float64
	MaxOutDegree int
	MaxInDegree  int
	SelfLoops    int
	// InDegreeGini is a concentration measure of the in-degree
	// distribution in [0,1]; web-like power-law graphs score high.
	InDegreeGini float64
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Nodes:    g.N(),
		Edges:    g.M(),
		Weighted: g.Weighted(),
	}
	if g.N() == 0 {
		return s
	}
	s.AvgOutDegree = float64(g.M()) / float64(g.N())
	inDegs := make([]int, g.N())
	for u := NodeID(0); int(u) < g.N(); u++ {
		od := g.OutDegree(u)
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		id := g.InDegree(u)
		inDegs[u] = id
		if id > s.MaxInDegree {
			s.MaxInDegree = id
		}
		if g.HasEdge(u, u) {
			s.SelfLoops++
		}
	}
	s.InDegreeGini = gini(inDegs)
	return s
}

// gini computes the Gini coefficient of a non-negative integer sample.
func gini(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]int, len(xs))
	copy(sorted, xs)
	sort.Ints(sorted)
	var cum, total float64
	for _, x := range sorted {
		total += float64(x)
	}
	if total == 0 {
		return 0
	}
	var area float64
	for _, x := range sorted {
		cum += float64(x)
		area += cum
	}
	n := float64(len(sorted))
	// Gini = 1 - 2*B where B is the area under the Lorenz curve.
	return 1 - (2*area-total)/(n*total)
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d avg_out=%.2f max_out=%d max_in=%d self_loops=%d gini_in=%.3f weighted=%t",
		s.Nodes, s.Edges, s.AvgOutDegree, s.MaxOutDegree, s.MaxInDegree, s.SelfLoops, s.InDegreeGini, s.Weighted)
}

// TopByInDegree returns the b nodes with the largest in-degree, ties broken
// by smaller identifier. Used by the paper's hub selection (§4.1.1).
func TopByInDegree[G View](g G, b int) []NodeID {
	return topByDegree(g.N(), b, func(u NodeID) int { return g.InDegree(u) })
}

// TopByOutDegree returns the b nodes with the largest out-degree, ties
// broken by smaller identifier.
func TopByOutDegree[G View](g G, b int) []NodeID {
	return topByDegree(g.N(), b, func(u NodeID) int { return g.OutDegree(u) })
}

func topByDegree(n, b int, deg func(NodeID) int) []NodeID {
	if b <= 0 || n == 0 {
		return nil
	}
	if b > n {
		b = n
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := deg(ids[i]), deg(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	out := make([]NodeID, b)
	copy(out, ids[:b])
	return out
}

// PowerLawExponent fits the tail exponent of the in-degree distribution via
// the discrete maximum-likelihood estimator (Clauset-style with fixed
// dmin). It returns NaN for graphs too small to fit. The experiment harness
// uses it to confirm the synthetic web graphs reproduce the power-law shape
// that Theorem 1 presumes.
func PowerLawExponent(g *Graph, dmin int) float64 {
	if dmin < 1 {
		dmin = 1
	}
	var sum float64
	var count int
	for u := NodeID(0); int(u) < g.N(); u++ {
		d := g.InDegree(u)
		if d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			count++
		}
	}
	if count < 10 || sum == 0 {
		return math.NaN()
	}
	return 1 + float64(count)/sum
}
