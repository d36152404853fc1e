package rwr_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/evolve"
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

// BenchmarkOverlayPMPN times the PMPN on one edited graph three ways: as a
// compacted CSR, behind a 10-edit overlay, and behind the generic View
// path. It is the harness that decides whether the Overlay kernel bodies
// earn their place: they must beat the generic body. They sit well above
// the csr series, because the CSR's gather takes four equal-degree rows
// per pass (graph.DegreeRuns) and the Overlay's does not.
func BenchmarkOverlayPMPN(b *testing.B) {
	g, err := gen.WebGraph(4000, 11)
	if err != nil {
		b.Fatal(err)
	}
	edits := overlayBenchBatch(g, 10, 606)
	o, err := graph.NewOverlay(g).Apply(edits)
	if err != nil {
		b.Fatal(err)
	}
	g2, err := evolve.ApplyEdits(g, edits, graph.DanglingSelfLoop)
	if err != nil {
		b.Fatal(err)
	}
	p := rwr.DefaultParams()
	workers := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		name string
		v    graph.View
	}{
		{"csr", g2},
		{"overlay", o},
		// A wrapper whose dynamic type is neither *graph.Graph nor
		// *graph.Overlay: the kernels' type switch cannot unwrap it, so
		// this measures the generic loops an out-of-tree View would hit.
		{"generic", opaqueView{o}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rwr.ProximityToParallel(c.v, graph.NodeID(i%c.v.N()), p, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// opaqueView hides the concrete view type from the kernels' type switch.
type opaqueView struct{ graph.View }

// overlayBenchBatch builds a mixed insert/remove batch of size edits
// against g.
func overlayBenchBatch(g *graph.Graph, size int, seed int64) []evolve.Edit {
	rng := rand.New(rand.NewSource(seed))
	var edits []evolve.Edit
	seen := map[[2]graph.NodeID]bool{}
	for len(edits) < size {
		u := graph.NodeID(rng.Intn(g.N()))
		if rng.Intn(2) == 0 && g.OutDegree(u) > 1 {
			nbrs := g.OutNeighbors(u)
			v := nbrs[rng.Intn(len(nbrs))]
			if seen[[2]graph.NodeID{u, v}] {
				continue
			}
			seen[[2]graph.NodeID{u, v}] = true
			edits = append(edits, evolve.Edit{From: u, To: v, Remove: true})
		} else {
			v := graph.NodeID(rng.Intn(g.N()))
			if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] {
				continue
			}
			seen[[2]graph.NodeID{u, v}] = true
			edits = append(edits, evolve.Edit{From: u, To: v})
		}
	}
	return edits
}
