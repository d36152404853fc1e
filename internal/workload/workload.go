// Package workload provides seeded query-workload construction and
// result-set accounting for the experiment harness: uniform query sampling
// (the paper's 500-query workloads, §5.3), all-node sweeps (Fig. 8), and
// the Jaccard similarity used to quantify the rounding effect (Fig. 9).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Queries samples `count` query nodes uniformly (with replacement) from a
// graph with n nodes. Deterministic for a fixed seed.
func Queries(n, count int, seed int64) ([]graph.NodeID, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a non-empty graph, n=%d", n)
	}
	if count < 0 {
		return nil, fmt.Errorf("workload: negative count %d", count)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]graph.NodeID, count)
	for i := range qs {
		qs[i] = graph.NodeID(rng.Intn(n))
	}
	return qs, nil
}

// AllNodes returns the exhaustive workload 0..n−1 (Fig. 8 runs every node
// of Web-stanford-cs as a query).
func AllNodes(n int) []graph.NodeID {
	qs := make([]graph.NodeID, n)
	for i := range qs {
		qs[i] = graph.NodeID(i)
	}
	return qs
}

// Jaccard computes |a∩b| / |a∪b| over two node sets given as slices
// (duplicates ignored). Two empty sets have similarity 1 — a query whose
// answer is empty under both indexes agrees perfectly.
func Jaccard(a, b []graph.NodeID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inA := make(map[graph.NodeID]bool, len(a))
	for _, u := range a {
		inA[u] = true
	}
	inter, union := 0, len(inA)
	seenB := make(map[graph.NodeID]bool, len(b))
	for _, u := range b {
		if seenB[u] {
			continue
		}
		seenB[u] = true
		if inA[u] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}
