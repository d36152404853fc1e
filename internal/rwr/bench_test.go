package rwr_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rwr"
)

// BenchmarkParallelPMPN isolates step 1 of the query: the sharded transposed
// power iteration (Algorithm 2) on a 2 000-node webgraph, across worker
// counts.
func BenchmarkParallelPMPN(b *testing.B) {
	g, err := gen.WebGraph(2000, 11)
	if err != nil {
		b.Fatal(err)
	}
	p := rwr.DefaultParams()
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rwr.ProximityToParallel(g, graph.NodeID(i%g.N()), p, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
