// Command bench is the repository's one benchmark: it builds fixtures with
// the real rtkgen and rtkindex, serves them with the real rtkserve at
// default flags, drives the daemon over loopback HTTP, checks the answers,
// and prints every metric by name. With -trace 1 it also replays the same
// requests in-process and times the calls into each package, which is the
// layer table under the end-to-end numbers. See README.md beside this file.
//
// BENCHMARK.json at the repository root names run.sh, which builds this
// command and runs it as
//
//	harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object printed as the last line of standard output.
// Everything else (tables, progress, misses) goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killDaemons()
		os.Exit(130)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is what one workload's run reports.
type result struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	misses    []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "all", "workload to run: web-cold, social-mixed, web-hot, web-edits or all")
		seed         = fs.Int64("seed", 1, "seed of the generated graphs and request lists")
		seconds      = fs.Float64("seconds", 12, "seconds of timed traffic per run, split evenly over the passes")
		trace        = fs.Int("trace", 0, "1 = traced run: print the per-layer metrics and write out/trace.<workload>.json")
		sets         = fs.Int("sets", 1, "calibration: repeat the run this many times on seeds seed, seed+1, … and print each metric's spread")
		curve        = fs.Bool("curve", false, "also drive web-cold's requests open-loop at fixed rates and print latency against offered load")
		scaleName    = fs.String("scale", "full", "fixture and sample sizes: full (what BENCHMARK.json is calibrated at) or tiny (smoke test)")
		buildDir     = fs.String("build-dir", filepath.Join("..", ".bench_build"), "directory for built binaries and per-run scratch files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -scale %q\n", *scaleName)
		return 2
	}
	var todo []workload
	if *workloadName == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown -workload %q\n", *workloadName)
		return 2
	}
	if *seconds <= 0 || *sets < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -sets must be positive")
		return 2
	}

	abs, err := filepath.Abs(*buildDir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	t, err := buildTools(filepath.Join(abs, "bin"))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	workDir := filepath.Join(abs, "work", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(workDir)
	defer killDaemons()

	newHarness := func(seed int64) *harness {
		return &harness{
			tools: t, sc: sc, seed: seed, seconds: *seconds, workDir: workDir, logw: stderr,
			client: &http.Client{
				Timeout:   2 * time.Minute,
				Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
			},
		}
	}

	status := 0
	spread := map[string]map[string][]float64{} // workload → metric → per-set value
	for set := 0; set < *sets; set++ {
		h := newHarness(*seed + int64(set))
		for _, w := range todo {
			var (
				res result
				err error
			)
			if *trace == 1 {
				res, err = h.runTraced(w)
			} else {
				res, err = h.runWorkload(w)
			}
			h.client.CloseIdleConnections()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printTable(stderr, res, h.seed)
			if res.failed > 0 {
				status = 1
			}
			if spread[w.name] == nil {
				spread[w.name] = map[string][]float64{}
			}
			for _, m := range res.metrics {
				spread[w.name][m.name] = append(spread[w.name][m.name], m.value())
			}
			if err := printJSON(stdout, res, *trace == 1); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if *curve && w.name == "web-cold" && *trace != 1 {
				if err := h.curve(w); err != nil {
					fmt.Fprintf(stderr, "bench: curve: %v\n", err)
					return 1
				}
			}
		}
	}
	if *sets > 1 {
		printSpread(stderr, todo, spread)
	}
	return status
}

// runWorkload is the untraced run: passes against the real daemon, then the
// correctness gate.
func (h *harness) runWorkload(w workload) (result, error) {
	h.logf("%s seed=%d: %d passes of %.1f s", w.name, h.seed, passes, h.seconds/passes)
	var (
		pl plan
		ps []*pass
	)
	dur := time.Duration(h.seconds / passes * float64(time.Second))
	for i := 0; i < passes; i++ {
		p, err := h.runPass(w, &pl, i, dur, i == passes-1)
		if err != nil {
			return result{}, err
		}
		ps = append(ps, p)
		if i < passes-1 {
			if err := os.RemoveAll(p.dir); err != nil {
				return result{}, err
			}
		}
	}
	res := result{workload: w.name, metrics: summarize(ps)}
	gt := &gate{}
	for _, p := range ps {
		gt.requests("read", pl.reader, p.reader.outcomes)
		gt.requests("write", pl.writer, p.writer.outcomes)
	}
	if err := h.runGate(gt, w, pl, ps[len(ps)-1]); err != nil {
		return result{}, err
	}
	if gt.recoveryS > 0 {
		res.metrics = append(res.metrics, metric{"recovery_s", "s", []float64{gt.recoveryS}, 1})
	}
	res.attempted, res.failed, res.misses = gt.attempted, gt.failed, gt.misses
	return res, nil
}

// runGate checks answers after the timing is done, against the daemon the
// last pass left running, and then stops it.
func (h *harness) runGate(gt *gate, w workload, pl plan, last *pass) error {
	defer func() {
		if last.d != nil {
			last.d.kill()
		}
		_ = os.RemoveAll(last.dir)
	}()
	rng := rand.New(rand.NewSource(h.seed*1000 + 902))
	answers := sampleAnswers(rng, pl.reader, last.reader.bodies, opExact, h.sc.gateSample)
	if w.durable {
		// Only the warm-up answers predate the first edit, so only they can
		// be recomputed from the fixture files.
		answers = sampleAnswers(rng, pl.warm, last.warm.bodies, opExact, h.sc.gateSample)
		if err := h.recovery(gt, w, last, pl.warm); err != nil {
			return err
		}
	}
	if approx := sampleAnswers(rng, pl.reader, last.reader.bodies, opApprox, h.sc.gateApprox); len(approx) > 0 {
		h.approx(gt, last.d, approx)
	}
	if last.d != nil {
		if err := last.d.stop(); err != nil {
			return err
		}
		last.d = nil
	}
	if err := h.served(gt, last, answers); err != nil {
		return err
	}
	return h.oracle(gt)
}

func printTable(w io.Writer, res result, seed int64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s (seed %d)\tunit\tmedian\tmin\tmax\tpasses\tsamples\n", res.workload, seed)
	for _, m := range res.metrics {
		fmt.Fprintf(tw, "  %s\t%s\t%.4g\t%.4g\t%.4g\t%d\t%d\n", m.name, m.unit, m.value(), slices.Min(m.perPass), slices.Max(m.perPass), len(m.perPass), m.samples)
	}
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(tw, "  fail_ratio\tratio\t%.4g\t\t\t\t%d\n", ratio, res.attempted)
	tw.Flush()
	for _, miss := range res.misses {
		fmt.Fprintf(w, "  MISS %s\n", miss)
	}
}

func printSpread(w io.Writer, todo []workload, spread map[string]map[string][]float64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "set-to-set\tmetric\tmedian\tquartile spread / median\t(max−min) / median\tsets")
	for _, wl := range todo {
		for _, def := range append(append([]metricDef(nil), endToEnd...), layerMetrics...) {
			vs := spread[wl.name][def.name]
			if len(vs) == 0 {
				continue
			}
			rng := 0.0
			if med := median(vs); med != 0 {
				rng = (slices.Max(vs) - slices.Min(vs)) / med
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.3f\t%.3f\t%d\n", wl.name, def.name, median(vs), quartileSpread(vs), rng, len(vs))
		}
	}
	tw.Flush()
}

// printJSON writes the driver's result line: the bounded end-to-end metrics
// of an untraced run, or every per-layer metric of a traced one.
func printJSON(w io.Writer, res result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	names := endToEnd[:boundedMetrics]
	if traced {
		names = layerMetrics
	}
	byName := map[string]metric{}
	for _, m := range res.metrics {
		byName[m.name] = m
	}
	for _, def := range names {
		out.Metrics[def.name] = value{byName[def.name].value(), def.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
