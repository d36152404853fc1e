// Command rtkbench regenerates every table and figure of the paper's
// evaluation section (§5) on the synthetic dataset analogs. Each experiment
// prints the same rows/series the paper reports. It is the reproduction,
// not a system benchmark: serving, cold-start, edit, shard and
// observability numbers come from bench/ (see BENCHMARK.json).
//
// Usage:
//
//	rtkbench -exp all -scale 1
//	rtkbench -exp fig5 -scale 2 -queries 500
//	rtkbench -exp table3
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/vecmath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtkbench: ")
	var (
		which   = flag.String("exp", "all", "experiment: datasets|table2|fig5|fig6|fig7|fig8|fig9|spam|table3|approx|all")
		scale   = flag.Int("scale", 1, "graph size multiplier (paper sizes ≈ 5–400)")
		queries = flag.Int("queries", 0, "query workload size override (0 = experiment default; paper: 500)")
		workers = flag.Int("workers", 1, "intra-query workers for the fig5/fig6 query sweep (0 = all cores)")
		verbose = flag.Bool("v", false, "print progress while running")
	)
	flag.Parse()

	// Unknown experiment names fail fast with the full menu instead of
	// silently running nothing.
	valid := []string{"all", "datasets", "table2", "fig5", "fig6", "fig7", "fig8", "fig9",
		"spam", "table3", "approx"}
	if !slices.Contains(valid, *which) {
		log.Fatalf("unknown experiment %q; valid -exp values: %s", *which, strings.Join(valid, ", "))
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	run := func(name string) bool {
		return *which == "all" || *which == name ||
			(*which == "fig5" && name == "fig6") || (*which == "fig6" && name == "fig5")
	}
	start := time.Now()

	if run("datasets") {
		header("Dataset analogs (§5.1): structural statistics")
		rows, err := exp.RunDatasets(exp.DefaultGraphs(*scale), progress)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteDatasets(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
	}

	if run("table2") {
		header("Table 2: index construction time and space")
		cfg := exp.DefaultTable2Config(*scale)
		rows, err := exp.RunTable2(cfg, progress)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteTable2(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
	}

	if run("fig5") || run("fig6") {
		cfg := exp.DefaultFig5Config(*scale)
		if *queries > 0 {
			cfg.Queries = *queries
		}
		cfg.Workers = vecmath.Workers(*workers)
		rows, err := exp.RunFigure5And6(cfg, progress)
		if err != nil {
			log.Fatal(err)
		}
		if run("fig5") {
			header("Figure 5: query time vs k (update / no-update)")
			if err := exp.WriteFigure5(os.Stdout, rows); err != nil {
				log.Fatal(err)
			}
		}
		if run("fig6") {
			header("Figure 6: candidates / hits / results vs k")
			if err := exp.WriteFigure6(os.Stdout, rows); err != nil {
				log.Fatal(err)
			}
		}
	}

	if run("fig7") {
		header("Figure 7: per-query cost across the workload (index refinement effect)")
		cfg := exp.DefaultFig7Config(*scale)
		if *queries > 0 {
			cfg.Queries = *queries
		}
		points, err := exp.RunFigure7(cfg, progress)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteFigure7(os.Stdout, points); err != nil {
			log.Fatal(err)
		}
	}

	if run("fig8") {
		header("Figure 8: cumulative cost vs brute force (IBF / FBF), single-core accounting")
		points, err := exp.RunFigure8(exp.DefaultFig8Config(*scale), progress)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteFigure8(os.Stdout, points); err != nil {
			log.Fatal(err)
		}
	}

	if run("fig9") {
		header("Figure 9: rounding threshold ω vs result similarity")
		cfg := exp.DefaultFig9Config(*scale)
		if *queries > 0 {
			cfg.Queries = *queries
		}
		rows, err := exp.RunFigure9(cfg, progress)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteFigure9(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
	}

	if run("spam") {
		header("§5.4 spam detection: label purity of reverse top-5 answers")
		res, err := exp.RunSpamDetection(exp.DefaultSpamConfig(*scale), progress)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteSpamResult(os.Stdout, res); err != nil {
			log.Fatal(err)
		}
	}

	if run("approx") {
		header("Extension: hits-only approximate queries (§5.3 suggestion) — recall/precision/speedup")
		cfg := exp.DefaultApproxConfig(*scale)
		if *queries > 0 {
			cfg.Queries = *queries
		}
		rows, err := exp.RunApproxStudy(cfg, progress)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteApproxStudy(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
	}

	if run("table3") {
		header("Table 3: longest reverse top-5 lists in the co-authorship network")
		rows, err := exp.RunTable3(exp.DefaultTable3Config(*scale), progress)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteTable3(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\ndone in %v\n", time.Since(start).Round(time.Millisecond))
}

func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
