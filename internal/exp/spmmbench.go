package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/workload"
)

// SpMMBenchConfig parameterizes the multi-query batching experiment: the
// same 131k-node web graph as the shard bench, queried through the SpMM
// proximity tier at increasing batch widths. Width 1 is the scalar
// baseline; wider batches advance all columns in one slab sweep, amortizing
// every CSR traversal across the batch.
type SpMMBenchConfig struct {
	// Nodes sizes the bench graph.
	Nodes int
	// IndexK / HubBudget shape the index.
	IndexK, HubBudget int
	// K is the query k; Queries the workload size per batch width.
	K, Queries int
	// Widths lists the batch widths to sweep; the first entry must be 1
	// (the scalar-Query throughput baseline).
	Widths []int
	// Relabel names the cache-aware layout baked into the index before
	// the sweep: none|degree|rcm. The workload always speaks external
	// identifiers; the View translates at the boundary.
	Relabel string
	// OracleQueries answers are checked against the scalar engine (0
	// disables).
	OracleQueries int
	Seed          int64
}

// DefaultSpMMBenchConfig matches the acceptance setup: the 2^17 = 131072
// node bench graph, widths 1/2/4/16, degree-descending layout.
func DefaultSpMMBenchConfig(scale int) SpMMBenchConfig {
	n := 131072
	if scale > 1 {
		n *= scale
	}
	return SpMMBenchConfig{
		Nodes:         n,
		IndexK:        32,
		HubBudget:     48,
		K:             10,
		Queries:       32,
		Widths:        []int{1, 2, 4, 16},
		Relabel:       "degree",
		OracleQueries: 2,
		Seed:          1117,
	}
}

// SpMMBenchRow is one batch width's measurements.
type SpMMBenchRow struct {
	Width int `json:"width"`
	// NSPerQuery is mean wall clock per query over the whole workload
	// (batches run back to back); QPS its reciprocal — the aggregate
	// throughput a saturated daemon gets from this width.
	NSPerQuery int64   `json:"ns_per_query"`
	QPS        float64 `json:"qps"`
	// SpeedupVsScalar is QPS relative to the width-1 row: the pure
	// batching gain, measured at the same single-worker budget so no
	// parallelism is mixed into the comparison.
	SpeedupVsScalar float64 `json:"speedup_vs_scalar"`
	// PMPNIters totals the proximity iterations the workload consumed.
	PMPNIters int64 `json:"pmpn_iters"`
	// PMPNNS and FallbackNS total the wall clock the workload's queries
	// reported in the PMPN slabs and the deferred exact-fallback slabs
	// (shared time is charged to every participating query, so at wide
	// widths these overcount relative to the row wall clock — they are
	// phase-composition signals, not additive partitions). Fallbacks
	// totals QueryStats.ExactFallbacks.
	PMPNNS     int64 `json:"pmpn_ns"`
	FallbackNS int64 `json:"fallback_ns"`
	Fallbacks  int64 `json:"fallbacks"`
	// OracleAgree reports the answer-identity spot check against the
	// scalar engine.
	OracleAgree bool `json:"oracle_agree"`
}

// SpMMBenchResult is the machine-readable record emitted as
// BENCH_spmm.json.
type SpMMBenchResult struct {
	GraphNodes int    `json:"graph_nodes"`
	GraphEdges int    `json:"graph_edges"`
	IndexK     int    `json:"index_k"`
	Hubs       int    `json:"hubs"`
	BuildNS    int64  `json:"build_ns"`
	Layout     string `json:"layout"`
	K          int    `json:"k"`
	Queries    int    `json:"queries"`
	// Cores is runtime.NumCPU() where the record was taken. The sweep
	// pins one worker per width, so the speedup column is core-count
	// independent — it measures memory-traffic amortization, not
	// parallelism.
	Cores int            `json:"cores"`
	Rows  []SpMMBenchRow `json:"rows"`
}

// RunSpMMBench builds the bench index once (under the requested cache-aware
// layout) and drives the same query workload through View.Query at width 1
// and core.QueryBatch at every wider width, recording aggregate throughput.
func RunSpMMBench(cfg SpMMBenchConfig, progress io.Writer) (*SpMMBenchResult, error) {
	if len(cfg.Widths) == 0 || cfg.Widths[0] != 1 {
		return nil, fmt.Errorf("exp: spmm widths must start with the scalar baseline 1, got %v", cfg.Widths)
	}
	g, err := gen.WebGraph(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var perm graph.Permutation
	switch cfg.Relabel {
	case "", "none":
	case "degree":
		perm = graph.DegreeOrderPermutation(g)
	case "rcm":
		perm = graph.RCMPermutation(g)
	default:
		return nil, fmt.Errorf("exp: unknown relabeling %q (none|degree|rcm)", cfg.Relabel)
	}
	layout := cfg.Relabel
	if layout == "" {
		layout = "none"
	}
	if perm != nil {
		if g, err = graph.ApplyPermutation(g, perm); err != nil {
			return nil, err
		}
	}

	opts := indexOptions(cfg.IndexK, cfg.HubBudget, 1e-6)
	if progress != nil {
		fmt.Fprintf(progress, "spmm: building index over n=%d m=%d (layout %s) ...\n", g.N(), g.M(), layout)
	}
	buildStart := time.Now()
	idx, bstats, err := lbindex.Build(g, opts)
	if err != nil {
		return nil, err
	}
	if perm != nil {
		if err := idx.SetRelabeling(perm); err != nil {
			return nil, err
		}
	}
	res := &SpMMBenchResult{
		GraphNodes: g.N(),
		GraphEdges: g.M(),
		IndexK:     cfg.IndexK,
		Hubs:       bstats.HubCount,
		BuildNS:    int64(time.Since(buildStart)),
		Layout:     layout,
		K:          cfg.K,
		Queries:    cfg.Queries,
		Cores:      runtime.NumCPU(),
	}
	v, err := core.NewView(g, idx)
	if err != nil {
		return nil, err
	}
	queries, err := workload.Queries(g.N(), cfg.Queries, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	// Oracle answers come from the scalar path; wider widths must
	// reproduce them node for node.
	oracle := map[int][]graph.NodeID{}
	for i := 0; i < cfg.OracleQueries && i < len(queries); i++ {
		ans, _, err := v.Query(queries[i], cfg.K, 1)
		if err != nil {
			return nil, err
		}
		oracle[int(queries[i])] = append([]graph.NodeID(nil), ans...)
	}

	for _, w := range cfg.Widths {
		if w < 1 {
			return nil, fmt.Errorf("exp: spmm width %d < 1", w)
		}
		if progress != nil {
			fmt.Fprintf(progress, "spmm: width=%d warming + measuring %d queries ...\n", w, len(queries))
		}
		// One warm-up pass over the first batch keeps one-time costs
		// (pool fills, page-in) out of the measurement.
		if err := runSpMMWidth(v, queries[:min(w, len(queries))], cfg.K, w, nil, nil); err != nil {
			return nil, err
		}
		row := SpMMBenchRow{Width: w, OracleAgree: true}
		start := time.Now()
		if err := runSpMMWidth(v, queries, cfg.K, w, oracle, &row); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		row.NSPerQuery = int64(elapsed) / int64(len(queries))
		row.QPS = float64(len(queries)) / elapsed.Seconds()
		if w == 1 {
			row.SpeedupVsScalar = 1
		} else {
			row.SpeedupVsScalar = row.QPS / res.Rows[0].QPS
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runSpMMWidth pushes the workload through the view at one batch width:
// sequential scalar queries at width 1, back-to-back core.QueryBatch slabs
// otherwise — always with a single worker, so widths compare batching
// alone. A non-nil row accumulates iteration counts and oracle agreement.
func runSpMMWidth(v *core.View, queries []graph.NodeID, k, w int, oracle map[int][]graph.NodeID, row *SpMMBenchRow) error {
	if w == 1 {
		for _, q := range queries {
			ans, st, err := v.Query(q, k, 1)
			if err != nil {
				return err
			}
			if row != nil {
				row.PMPNIters += int64(st.PMPNIters)
				row.PMPNNS += int64(st.PMPNElapsed)
				row.FallbackNS += int64(st.FallbackElapsed)
				row.Fallbacks += int64(st.ExactFallbacks)
				if want, ok := oracle[int(q)]; ok && !sameIDs(ans, want) {
					row.OracleAgree = false
				}
			}
		}
		return nil
	}
	for lo := 0; lo < len(queries); lo += w {
		chunk := queries[lo:min(lo+w, len(queries))]
		results, err := core.QueryBatch(v.Graph(), v.Index(), chunk, k, 1, false, false)
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			if row != nil {
				row.PMPNIters += int64(r.Stats.PMPNIters)
				row.PMPNNS += int64(r.Stats.PMPNElapsed)
				row.FallbackNS += int64(r.Stats.FallbackElapsed)
				row.Fallbacks += int64(r.Stats.ExactFallbacks)
				if want, ok := oracle[int(r.Query)]; ok && !sameIDs(r.Answer, want) {
					row.OracleAgree = false
				}
			}
		}
	}
	return nil
}

// WriteSpMMBench prints the sweep and records the JSON file when jsonPath
// is non-empty.
func WriteSpMMBench(w io.Writer, res *SpMMBenchResult, jsonPath string) error {
	fmt.Fprintf(w, "graph: n=%d m=%d; index K=%d, %d hubs, built in %v; %s layout, k=%d, %d queries, %d cores\n",
		res.GraphNodes, res.GraphEdges, res.IndexK, res.Hubs,
		time.Duration(res.BuildNS).Round(time.Millisecond), res.Layout, res.K, res.Queries, res.Cores)
	tw := newTable(w)
	fmt.Fprintln(tw, "width\tns/query\tqps\tvs-scalar\tpmpn-iters\tpmpn-ms\tfallback-ms\tfallbacks\toracle")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2fx\t%d\t%d\t%d\t%d\t%v\n",
			r.Width, r.NSPerQuery, r.QPS, r.SpeedupVsScalar, r.PMPNIters,
			r.PMPNNS/1e6, r.FallbackNS/1e6, r.Fallbacks, r.OracleAgree)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", jsonPath)
	return nil
}
