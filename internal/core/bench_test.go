package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/lbindex"
	"repro/internal/workload"
)

// BenchmarkIntraQueryWorkers measures ONE reverse top-k query (Algorithm 4)
// at increasing intra-query worker counts on a 2 000-node webgraph indexed
// at K = 100, B = 20 — the single-query latency lever. The PMPN and the
// candidate screen both shard over node ranges, so on a multi-core machine
// the time falls from workers=1 towards GOMAXPROCS; answers are identical
// at every setting. Each worker count queries its own Clone, so update-mode
// refinements do not leak between series.
func BenchmarkIntraQueryWorkers(b *testing.B) {
	g, err := gen.WebGraph(2000, 11)
	if err != nil {
		b.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 100
	opts.HubBudget = 20
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := workload.Queries(g.N(), 256, 909)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng, err := NewEngine(g, idx.Clone(), true)
			if err != nil {
				b.Fatal(err)
			}
			eng.SetWorkers(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Query(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
