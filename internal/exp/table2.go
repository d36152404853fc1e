package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// Table2Row is one row of the index-construction study: one graph at one
// hub budget B.
type Table2Row struct {
	Graph        string
	Nodes, Edges int
	B            int
	HubCount     int
	BuildTime    time.Duration
	// ActualBytes counts states at their stored size (lbindex.Index keeps
	// only the R entries at or above η, no W for a state left with none,
	// every sparse value as float32 and every state's indices as gap
	// varints), and UnroundedBytes is derived from it. The paper's
	// (P̂, R, W, S) store of Algorithm 1, at a 4-byte index and an 8-byte
	// value per entry, is ActualBytes + FoldedBytes + RoundedBytes +
	// PackedBytes.
	ActualBytes    int64
	FoldedBytes    int64
	RoundedBytes   int64
	PackedBytes    int64
	UnroundedBytes int64
	PredictedBytes int64
	PhatBytes      int64
	// FullPTime is the cost of the brute-force alternative: computing the
	// entire proximity matrix (measured on a column sample and scaled).
	FullPTime time.Duration
	// FullPBytes is the n² storage the brute force would need.
	FullPBytes int64
}

// Table2Config parameterizes the study.
type Table2Config struct {
	Graphs []GraphSpec
	// BSweep lists the hub budgets per graph as fractions of n (the paper
	// sweeps absolute B per graph; fractions keep the sweep meaningful
	// across analog sizes).
	BFractions []float64
	K          int
	Omega      float64
	// SampleColumns bounds the full-P cost measurement: that many columns
	// are computed exactly and the total is scaled to n. 0 means 64.
	SampleColumns int
}

// DefaultTable2Config mirrors §5.2 at harness scale.
func DefaultTable2Config(scale int) Table2Config {
	return Table2Config{
		Graphs:        DefaultGraphs(scale),
		BFractions:    []float64{0.005, 0.01, 0.02, 0.03},
		K:             100,
		Omega:         1e-6,
		SampleColumns: 64,
	}
}

// RunTable2 builds the index for every (graph, B) pair and reports
// construction time and storage against the full-matrix brute force.
// Index builds run single-threaded so that BuildTime and FullPTime use the
// same accounting — the paper likewise reports per-core time sums, with
// wall clock being the reported time divided by the core count (§5).
func RunTable2(cfg Table2Config, progress io.Writer) ([]Table2Row, error) {
	var rows []Table2Row
	for _, spec := range cfg.Graphs {
		g, err := spec.Build()
		if err != nil {
			return nil, err
		}
		fullPTime, err := measureFullPTime(g, cfg.SampleColumns)
		if err != nil {
			return nil, err
		}
		for _, frac := range cfg.BFractions {
			b := int(frac * float64(g.N()))
			if b < 1 {
				b = 1
			}
			opts := indexOptions(cfg.K, b, cfg.Omega)
			opts.Workers = 1
			_, stats, err := lbindex.Build(g, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Graph:          spec.Name,
				Nodes:          g.N(),
				Edges:          g.M(),
				B:              b,
				HubCount:       stats.HubCount,
				BuildTime:      stats.TotalElapsed,
				ActualBytes:    stats.Bytes,
				FoldedBytes:    stats.FoldedBytes,
				RoundedBytes:   stats.RoundedBytes,
				PackedBytes:    stats.PackedBytes,
				UnroundedBytes: stats.UnroundedBytes,
				PredictedBytes: stats.PredictedBytes,
				PhatBytes:      stats.PhatBytes,
				FullPTime:      fullPTime,
				FullPBytes:     int64(g.N()) * int64(g.N()) * 8,
			})
			if progress != nil {
				fmt.Fprintf(progress, "table2: %s B=%d done (%v)\n", spec.Name, b, stats.TotalElapsed.Round(time.Millisecond))
			}
		}
	}
	return rows, nil
}

// measureFullPTime times `sample` exact proximity-vector computations and
// scales to all n columns — the cost of materializing P (§3's brute force).
func measureFullPTime(g *graph.Graph, sample int) (time.Duration, error) {
	if sample <= 0 {
		sample = 64
	}
	if sample > g.N() {
		sample = g.N()
	}
	p := rwr.DefaultParams()
	start := time.Now()
	step := g.N() / sample
	if step < 1 {
		step = 1
	}
	count := 0
	for u := 0; u < g.N() && count < sample; u += step {
		res, err := rwr.ProximityVector(g, graph.NodeID(u), p)
		if err != nil {
			return 0, err
		}
		// Include the per-column top-K ranking the brute force also needs.
		_ = vecmath.TopKValues(res.Vector, 100)
		count++
	}
	elapsed := time.Since(start)
	return time.Duration(float64(elapsed) * float64(g.N()) / float64(count)), nil
}

// WriteTable2 renders the rows in the layout of Table 2. The actual column
// counts states at their stored size; folded is the R and W they no longer
// cost, rounded what float32 values save and packed what gap-varint indices
// save, so actual + folded + rounded + packed is the paper's store.
func WriteTable2(w io.Writer, rows []Table2Row) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tn\tm\tB\t|H|\tindex_time\tfullP_time\tactual\tfolded\trounded\tpacked\tno_round\tpredicted\tphat_only\tfullP_size")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%v\t%v\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Graph, r.Nodes, r.Edges, r.B, r.HubCount,
			r.BuildTime.Round(time.Millisecond), r.FullPTime.Round(time.Millisecond),
			fmtBytes(r.ActualBytes), fmtBytes(r.FoldedBytes), fmtBytes(r.RoundedBytes), fmtBytes(r.PackedBytes), fmtBytes(r.UnroundedBytes), fmtBytes(r.PredictedBytes),
			fmtBytes(r.PhatBytes), fmtBytes(r.FullPBytes))
	}
	return tw.Flush()
}
