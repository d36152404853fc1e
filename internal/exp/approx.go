package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/lbindex"
	"repro/internal/workload"
)

// ApproxRow compares the approximate query mode (§5.3's suggested
// hits-only variant: the guaranteed part of core.View.QueryAnytime at ε = 0,
// δ = 0) against the exact engine for one k: recall, precision and speedup.
type ApproxRow struct {
	Graph        string
	K            int
	Recall       float64
	Precision    float64
	ExactAvgTime time.Duration
	ApproxAvg    time.Duration
	Queries      int
}

// ApproxConfig parameterizes the approximate-mode study.
type ApproxConfig struct {
	Graph   GraphSpec
	Ks      []int
	IndexK  int
	Queries int
	Omega   float64
	Seed    int64
}

// DefaultApproxConfig evaluates the hits-only approximation on the
// Web-stanford-cs analog — the graph where the paper observes hits ≈
// results.
func DefaultApproxConfig(scale int) ApproxConfig {
	graphs := DefaultGraphs(scale)
	return ApproxConfig{
		Graph:   graphs[0],
		Ks:      []int{5, 10, 20, 50, 100},
		IndexK:  100,
		Queries: 100,
		Omega:   1e-6,
		Seed:    505,
	}
}

// RunApproxStudy measures the accuracy/cost trade-off of the approximate
// query mode. The paper ties the approximation to the "hits ≈ results"
// observation of Fig. 6, which it measures on a PROGRESSIVELY REFINED
// index (update mode); we therefore warm each index copy with one
// update-mode pass of the workload before measuring, and then freeze it.
// Expectation: recall near 1 on web graphs with a solid speedup, since all
// candidate refinement is skipped. Every random choice here flows from
// cfg.Seed (the workload) — nothing in this study or the anytime tier it
// now rides on touches the global math/rand stream, so runs with equal
// configs are bit-identical. The eps/delta frontier is bench/'s to measure
// (serve.approx_p50_ms, core.anytime_* in BENCHMARK.json).
func RunApproxStudy(cfg ApproxConfig, progress io.Writer) ([]ApproxRow, error) {
	g, err := cfg.Graph.Build()
	if err != nil {
		return nil, err
	}
	idx, _, err := lbindex.Build(g, indexOptions(cfg.IndexK, cfg.Graph.HubBudget, cfg.Omega))
	if err != nil {
		return nil, err
	}
	queries, err := workload.Queries(g.N(), cfg.Queries, cfg.Seed)
	if err != nil {
		return nil, err
	}

	var rows []ApproxRow
	for _, k := range cfg.Ks {
		if k > cfg.IndexK {
			continue
		}
		// Fresh warmed engine per k, then frozen, so timings compare the
		// two query modes on identical bounds.
		idxCopy, err := cloneIndex(idx)
		if err != nil {
			return nil, err
		}
		warm, err := core.NewEngine(g, idxCopy, true)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			if _, _, err := warm.Query(q, k); err != nil {
				return nil, err
			}
		}
		view, err := core.NewView(g, idxCopy)
		if err != nil {
			return nil, err
		}
		row := ApproxRow{Graph: cfg.Graph.Name, K: k, Queries: len(queries)}
		var exactTime, approxTime time.Duration
		var interTotal, exactTotal, approxTotal int
		for _, q := range queries {
			res, err := view.QueryAnytime(q, k, core.AnytimeOptions{}, 1)
			if err != nil {
				return nil, err
			}
			approx := res.Guaranteed
			exact, es, err := view.Query(q, k, 1)
			if err != nil {
				return nil, err
			}
			approxTime += res.Stats.Elapsed
			exactTime += es.Elapsed
			inExact := make(map[int32]bool, len(exact))
			for _, u := range exact {
				inExact[u] = true
			}
			for _, u := range approx {
				if inExact[u] {
					interTotal++
				}
			}
			exactTotal += len(exact)
			approxTotal += len(approx)
		}
		if exactTotal > 0 {
			row.Recall = float64(interTotal) / float64(exactTotal)
		} else {
			row.Recall = 1
		}
		if approxTotal > 0 {
			row.Precision = float64(interTotal) / float64(approxTotal)
		} else {
			row.Precision = 1
		}
		nq := float64(len(queries))
		row.ExactAvgTime = time.Duration(float64(exactTime) / nq)
		row.ApproxAvg = time.Duration(float64(approxTime) / nq)
		rows = append(rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "approx: k=%d recall=%.3f precision=%.3f\n", k, row.Recall, row.Precision)
		}
	}
	return rows, nil
}

// WriteApproxStudy renders the study.
func WriteApproxStudy(w io.Writer, rows []ApproxRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tk\trecall\tprecision\texact_avg\tapprox_avg\tqueries")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t%v\t%v\t%d\n",
			r.Graph, r.K, r.Recall, r.Precision,
			r.ExactAvgTime.Round(time.Microsecond), r.ApproxAvg.Round(time.Microsecond), r.Queries)
	}
	return tw.Flush()
}
