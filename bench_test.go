// Repository-level benchmarks: one per table/figure of the paper's
// evaluation (§5) plus ablations of the design choices. Absolute numbers
// are machine-specific; the shapes that must hold are described next to
// each benchmark (see README.md for the expected scaling shapes).
package repro

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bca"
	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/simrank"
	"repro/internal/workload"
)

// benchGraph lazily builds the shared benchmark graph (Web-stanford-cs
// analog at reduced scale) and its index.
var (
	benchOnce sync.Once
	benchG    *graph.Graph
	benchIdx  *lbindex.Index
)

func benchSetup(b *testing.B) (*graph.Graph, *lbindex.Index) {
	b.Helper()
	benchOnce.Do(func() {
		g, err := gen.WebGraph(2000, 11)
		if err != nil {
			panic(err)
		}
		opts := lbindex.DefaultOptions()
		opts.K = 100
		opts.HubBudget = 20
		idx, _, err := lbindex.Build(g, opts)
		if err != nil {
			panic(err)
		}
		benchG, benchIdx = g, idx
	})
	return benchG, benchIdx
}

// cloneBenchIndex gives each benchmark its own index copy so update-mode
// runs cannot leak refinements into other benchmarks.
func cloneBenchIndex(b *testing.B, idx *lbindex.Index) *lbindex.Index {
	b.Helper()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		b.Fatal(err)
	}
	clone, err := lbindex.Load(&buf)
	if err != nil {
		b.Fatal(err)
	}
	return clone
}

// BenchmarkTable2IndexConstruction measures Algorithm 1 (LBI) on the two
// graph families of Table 2. Shape: far below the full-P build measured by
// BenchmarkTable2FullMatrix on the same graph.
func BenchmarkTable2IndexConstruction(b *testing.B) {
	for _, kind := range []string{"web", "social"} {
		b.Run(kind, func(b *testing.B) {
			spec := exp.GraphSpec{Name: kind, Nodes: 1000, Kind: kind, Seed: 11, HubBudget: 10}
			g, err := spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			opts := lbindex.DefaultOptions()
			opts.K = 100
			opts.HubBudget = 10
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := lbindex.Build(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2FullMatrix is the brute-force yardstick of Table 2's last
// column: materializing the entire proximity matrix.
func BenchmarkTable2FullMatrix(b *testing.B) {
	g, err := gen.WebGraph(1000, 11)
	if err != nil {
		b.Fatal(err)
	}
	p := rwr.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rwr.ProximityMatrix(g, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Query measures one reverse top-k query (Algorithm 4) per
// iteration across the paper's k sweep, in both index modes. Shape: mild
// growth in k; update mode amortizes refinement across iterations.
func BenchmarkFigure5Query(b *testing.B) {
	g, idx := benchSetup(b)
	queries, err := workload.Queries(g.N(), 256, 101)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{5, 10, 20, 50, 100} {
		for _, update := range []bool{true, false} {
			mode := "noupdate"
			if update {
				mode = "update"
			}
			b.Run(fmt.Sprintf("k=%d/%s", k, mode), func(b *testing.B) {
				eng, err := core.NewEngine(g, cloneBenchIndex(b, idx), update)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := eng.Query(queries[i%len(queries)], k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure6Counters exposes the pruning statistics of Figure 6 as
// benchmark metrics (candidates/hits/results per query).
func BenchmarkFigure6Counters(b *testing.B) {
	g, idx := benchSetup(b)
	queries, err := workload.Queries(g.N(), 256, 202)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(g, cloneBenchIndex(b, idx), true)
	if err != nil {
		b.Fatal(err)
	}
	var cand, hits, results int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, qs, err := eng.Query(queries[i%len(queries)], 10)
		if err != nil {
			b.Fatal(err)
		}
		cand += qs.Candidates
		hits += qs.Hits
		results += qs.Results
	}
	b.ReportMetric(float64(cand)/float64(b.N), "candidates/query")
	b.ReportMetric(float64(hits)/float64(b.N), "hits/query")
	b.ReportMetric(float64(results)/float64(b.N), "results/query")
}

// BenchmarkFigure7RefinementEffect compares a query against a fresh index
// versus one already refined by a prior identical query — the Fig. 7 gap.
func BenchmarkFigure7RefinementEffect(b *testing.B) {
	g, idx := benchSetup(b)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := core.NewEngine(g, cloneBenchIndex(b, idx), true)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := eng.Query(17, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refined", func(b *testing.B) {
		eng, err := core.NewEngine(g, cloneBenchIndex(b, idx), true)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := eng.Query(17, 100); err != nil { // warm the index
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Query(17, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure8PerQuery compares the per-query cost of the three
// systems of Fig. 8 (build costs are what separates them; see
// BenchmarkTable2* for those).
func BenchmarkFigure8PerQuery(b *testing.B) {
	g, idx := benchSetup(b)
	p := idx.Options().RWR
	ibf, err := baseline.BuildIBF(g, 100, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	fbf, err := baseline.BuildFBF(g, 100, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(g, cloneBenchIndex(b, idx), true)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := workload.Queries(g.N(), 256, 303)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ours", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Query(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ibf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ibf.Query(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fbf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fbf.Query(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure9RoundingLevels measures query time against indexes built
// at the ω sweep of Fig. 9 (accuracy is covered by the exp harness; here
// the point is that rounding does not slow queries down).
func BenchmarkFigure9RoundingLevels(b *testing.B) {
	g, err := gen.WebGraph(1000, 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, omega := range []float64{1e-4, 1e-5, 1e-6, 0} {
		b.Run(fmt.Sprintf("omega=%g", omega), func(b *testing.B) {
			opts := lbindex.DefaultOptions()
			opts.K = 100
			opts.HubBudget = 10
			opts.Omega = omega
			idx, _, err := lbindex.Build(g, opts)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.NewEngine(g, idx, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Query(graph.NodeID(i%g.N()), 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpamDetection runs the §5.4 spam study end to end (small scale).
func BenchmarkSpamDetection(b *testing.B) {
	cfg := exp.DefaultSpamConfig(1)
	cfg.MaxQueriesPerClass = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunSpamDetection(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Coauthor runs the §5.4 author-popularity study end to end
// (small scale).
func BenchmarkTable3Coauthor(b *testing.B) {
	cfg := exp.Table3Config{
		Options: gen.CoauthorOptions{
			Authors: 300, Communities: 8, Prolific: 3,
			PapersPerAuthor: 6, CoauthorsPerPaper: 2, Seed: 7,
		},
		K: 5, IndexK: 20, TopN: 10, HubBudget: 6, Omega: 1e-6,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTable3(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §4) ---

// BenchmarkBCAVariants ablates the propagation strategy of §4.1.2: the
// paper's batch strategy versus classic max-residual and threshold-queue
// push, at an equal residue target. Shape: batch wins.
func BenchmarkBCAVariants(b *testing.B) {
	g, err := gen.WebGraph(2000, 11)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bca.Config{Alpha: 0.15, Eta: 1e-4, Delta: 0.1, MaxIters: 1000000}
	for _, strat := range []bca.Strategy{bca.StrategyBatch, bca.StrategyMaxResidual, bca.StrategyQueue} {
		b.Run(strat.String(), func(b *testing.B) {
			ws := bca.NewWorkspace(g.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := bca.RunStrategy(g, graph.NodeID(i%g.N()), bca.NoHubs, cfg, ws, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHubSelection ablates §4.1.1: the paper's degree-based selection
// versus Berkhin's greedy BCA-driven scheme. Shape: degree-based is orders
// of magnitude cheaper and independent of the hub count.
func BenchmarkHubSelection(b *testing.B) {
	g, err := gen.WebGraph(2000, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("degree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hub.SelectByDegree(g, 20)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hub.SelectGreedy(g, 40, bca.DefaultConfig(), int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPMPNvsColumn verifies Theorem 2's cost claim: computing the
// proximities TO a node (PMPN, a row of P) costs the same O(m·iters) as
// computing the proximities FROM a node (a column of P).
func BenchmarkPMPNvsColumn(b *testing.B) {
	g, _ := benchSetup(b)
	p := rwr.DefaultParams()
	b.Run("row-pmpn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rwr.ProximityTo(g, graph.NodeID(i%g.N()), p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("column-pm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rwr.ProximityVector(g, graph.NodeID(i%g.N()), p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIntraQueryWorkers measures ONE reverse top-k query (Algorithm 4)
// at increasing intra-query worker counts on the webgraph benchmark — the
// single-query latency lever. Shape: near-linear speedup from workers=1 to
// GOMAXPROCS on multi-core machines (the PMPN matvec and the candidate scan
// both shard over node ranges); answers are identical at every setting.
func BenchmarkIntraQueryWorkers(b *testing.B) {
	g, idx := benchSetup(b)
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
			eng, err := core.NewEngine(g, cloneBenchIndex(b, idx), true)
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

// BenchmarkParallelPMPN isolates step 1 of the query: the sharded transposed
// power iteration (Algorithm 2) across worker counts.
func BenchmarkParallelPMPN(b *testing.B) {
	g, _ := benchSetup(b)
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

// BenchmarkEvolveRefresh measures incremental maintenance (θ=1e-4)
// against the from-scratch rebuild on the same edit batch.
func BenchmarkEvolveRefresh(b *testing.B) {
	g, err := gen.WebGraph(1000, 11)
	if err != nil {
		b.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 100
	opts.HubBudget = 10
	built, _, err := lbindex.Build(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	edits := []evolve.Edit{{From: 3, To: 900}, {From: 500, To: 7}}
	g2, err := evolve.ApplyEdits(g, edits, graph.DanglingSelfLoop)
	if err != nil {
		b.Fatal(err)
	}
	affected, err := evolve.AffectedOrigins(g2, evolve.Sources(edits), 1e-4, opts.RWR)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("refresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			idx := cloneBenchIndexOf(b, built)
			b.StartTimer()
			if _, err := evolve.Refresh(g2, idx, affected); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := lbindex.Build(g2, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func cloneBenchIndexOf(b *testing.B, idx *lbindex.Index) *lbindex.Index {
	b.Helper()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		b.Fatal(err)
	}
	clone, err := lbindex.Load(&buf)
	if err != nil {
		b.Fatal(err)
	}
	return clone
}

// BenchmarkSimRank measures the dense SimRank fixed point (future-work
// substrate; O(I·n²·d²)).
func BenchmarkSimRank(b *testing.B) {
	g, err := gen.Copying(300, 4, 0.7, 0.2, 99)
	if err != nil {
		b.Fatal(err)
	}
	p := simrank.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simrank.Compute(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpperBound measures Algorithm 3 alone (it must be O(k), trivial
// next to everything else).
func BenchmarkUpperBound(b *testing.B) {
	phat := make([]float64, 200)
	v := 1.0
	for i := range phat {
		v *= 0.97
		phat[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.UpperBound(phat, 100, 0.05)
	}
}

// BenchmarkIndexSaveLoad measures (de)serialization of the index.
func BenchmarkIndexSaveLoad(b *testing.B) {
	_, idx := benchSetup(b)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := idx.Save(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lbindex.Load(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOverlayApply measures the tentpole claim of the overlay layer:
// applying a small edit batch as a delta (graph.Overlay.Apply, O(edits))
// against the full CSR rebuild (evolve.ApplyEdits, O(N+M)) on a ≥100k-edge
// graph. The expected shape is a ≥50× gap that widens with graph size; the
// overlay/rebuild answer equivalence is enforced by the differential suite
// in internal/evolve (TestOverlayMatchesApplyEdits); the recorded per-edit
// cost is BENCHMARK.json's graph.overlay_apply_us_per_edit.
func BenchmarkOverlayApply(b *testing.B) {
	g, err := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 0.05, 404) // 16384 nodes, ~131k edges
	if err != nil {
		b.Fatal(err)
	}
	edits := overlayBenchBatch(g, 10, 505)
	b.Logf("graph: n=%d m=%d, batch=%d edits", g.N(), g.M(), len(edits))
	b.Run("overlay", func(b *testing.B) {
		o := graph.NewOverlay(g)
		for i := 0; i < b.N; i++ {
			if _, err := o.Apply(edits); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evolve.ApplyEdits(g, edits, graph.DanglingSelfLoop); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		o := graph.NewOverlay(g)
		o, err := o.Apply(edits)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := o.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOverlayPMPN compares the sharded PMPN matvec on a pure CSR
// against the same graph behind a 10-edit overlay and behind the generic
// interface path — the "no regression on the pure-CSR path" guard for the
// View abstraction (the csr series must match BenchmarkParallelPMPN, and
// the overlay series should sit within a few percent of it).
func BenchmarkOverlayPMPN(b *testing.B) {
	g, err := gen.WebGraph(4000, 11)
	if err != nil {
		b.Fatal(err)
	}
	edits := overlayBenchBatch(g, 10, 606)
	o := graph.NewOverlay(g)
	o, err = o.Apply(edits)
	if err != nil {
		b.Fatal(err)
	}
	g2, err := evolve.ApplyEdits(g, edits, graph.DanglingSelfLoop)
	if err != nil {
		b.Fatal(err)
	}
	p := rwr.DefaultParams()
	workers := runtime.GOMAXPROCS(0)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rwr.ProximityToParallel(g2, graph.NodeID(i%g2.N()), p, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("overlay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rwr.ProximityToParallel(o, graph.NodeID(i%o.N()), p, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		// A wrapper whose dynamic type is neither *graph.Graph nor
		// *graph.Overlay: the kernels' type switch cannot unwrap it, so
		// this genuinely measures the generic fallback loops.
		v := opaqueView{o}
		for i := 0; i < b.N; i++ {
			if _, err := rwr.ProximityToParallel(v, graph.NodeID(i%v.N()), p, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// opaqueView hides the concrete view type from the kernels' type switch,
// forcing the generic fallback path (what an out-of-tree View would hit).
type opaqueView struct{ graph.View }

// overlayBenchBatch builds a mixed insert/remove batch against g.
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
