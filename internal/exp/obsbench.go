package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/lbindex"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// ObsBenchConfig parameterizes the observability-overhead experiment: the
// same query workload driven through two daemons over one index — one with
// the full instrumentation stack active (structured request logging and a
// record-everything slow-query ring on top of the always-on registry), one
// with logging and the slow log disabled — interleaved query by query so
// machine drift cancels. The gate is that full observability costs under a
// small fraction of median query latency.
type ObsBenchConfig struct {
	// Nodes sizes the bench graph; IndexK / HubBudget shape the index.
	Nodes, IndexK, HubBudget int
	// K is the query k; Queries the workload size per daemon.
	K, Queries int
	Seed       int64
}

// DefaultObsBenchConfig keeps the experiment CI-sized: a 20k-node web
// graph is large enough that queries do real PMPN work (so the overhead
// ratio is measured against realistic latencies) while the whole run stays
// under a minute.
func DefaultObsBenchConfig(scale int) ObsBenchConfig {
	n := 20000
	if scale > 1 {
		n *= scale
	}
	return ObsBenchConfig{
		Nodes:     n,
		IndexK:    24,
		HubBudget: 24,
		K:         10,
		Queries:   240,
		Seed:      2339,
	}
}

// ObsBenchResult is the machine-readable record emitted as BENCH_obs.json.
type ObsBenchResult struct {
	GraphNodes int `json:"graph_nodes"`
	GraphEdges int `json:"graph_edges"`
	K          int `json:"k"`
	Queries    int `json:"queries"`
	Cores      int `json:"cores"`
	// BaselineMedianNS / InstrumentedMedianNS are the per-query median
	// end-to-end HTTP latencies of the two daemons; OverheadPct is the
	// instrumented median's excess over the baseline in percent (negative
	// when noise favors the instrumented run).
	BaselineMedianNS     int64   `json:"baseline_median_ns"`
	InstrumentedMedianNS int64   `json:"instrumented_median_ns"`
	OverheadPct          float64 `json:"overhead_pct"`
	// Families counts the metric families the instrumented daemon's
	// /metrics exposition carried; ExpositionValid is true when the
	// exposition parsed cleanly and every required family was present.
	Families        int  `json:"families"`
	ExpositionValid bool `json:"exposition_valid"`
	// SlowLogEntries is the number of entries the record-everything ring
	// held after the run (bounded by its capacity).
	SlowLogEntries int `json:"slowlog_entries"`
}

// requiredFamilies is the exposition contract the serve-smoke CI step and
// this experiment both enforce: a scrape missing any of these families is
// a broken dashboard, not a style issue.
var requiredFamilies = []string{
	"rtk_queries_served_total",
	"rtk_queries_computed_total",
	"rtk_query_cache_total",
	"rtk_queries_rejected_total",
	"rtk_query_failures_total",
	"rtk_query_duration_seconds",
	"rtk_query_phase_seconds",
	"rtk_cache_bytes",
	"rtk_cache_evictions_total",
	"rtk_epoch",
	"rtk_nodes",
	"rtk_inflight",
	"rtk_maint_queue_depth",
	"rtk_maint_duration_seconds",
	"rtk_maint_errors_total",
	"rtk_compactions_total",
	"rtk_epoch_swaps_total",
	"rtk_uptime_seconds",
}

// ValidateExposition scrapes baseURL/metrics, parses it with the strict
// text-format parser and checks the required family set, returning the
// family count. Shared by this experiment and any smoke harness.
func ValidateExposition(baseURL string) (int, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("exp: /metrics returned %d", resp.StatusCode)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("exp: malformed exposition: %w", err)
	}
	for _, name := range requiredFamilies {
		if fams[name] == nil {
			return len(fams), fmt.Errorf("exp: exposition missing required family %s", name)
		}
	}
	return len(fams), nil
}

// obsBenchServer starts one daemon on a loopback listener and returns its
// base URL plus a shutdown func.
func obsBenchServer(s *serve.Server) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	stop := func() {
		httpSrv.Close()
		s.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// RunObsBench builds one index, serves it from a baseline and an
// instrumented daemon, and interleaves the same query workload through
// both, recording median latencies and validating the instrumented
// daemon's exposition.
func RunObsBench(cfg ObsBenchConfig, progress io.Writer) (*ObsBenchResult, error) {
	g, err := gen.WebGraph(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	opts := indexOptions(cfg.IndexK, cfg.HubBudget, 1e-6)
	if progress != nil {
		fmt.Fprintf(progress, "obs: building index over n=%d m=%d ...\n", g.N(), g.M())
	}
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		return nil, err
	}

	// Both daemons serve with the cache disabled so every request runs the
	// engine: the interesting overhead is on the compute path, and a warm
	// cache would otherwise reduce the comparison to cache-hit dispatch.
	base := serve.Config{CacheBytes: -1, WorkerBudget: 1}
	baseline, err := serve.New(g, idx, base)
	if err != nil {
		return nil, err
	}
	instCfg := base
	// The instrumented daemon runs the full stack: one structured log line
	// per request (serialized, then discarded — the writer is not the cost
	// being measured) and a record-everything slow-query ring.
	instCfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	instCfg.SlowLogThreshold = -1
	instrumented, err := serve.New(g, idx, instCfg)
	if err != nil {
		baseline.Close()
		return nil, err
	}

	baseURL, stopBase, err := obsBenchServer(baseline)
	if err != nil {
		instrumented.Close()
		baseline.Close()
		return nil, err
	}
	defer stopBase()
	instURL, stopInst, err := obsBenchServer(instrumented)
	if err != nil {
		instrumented.Close()
		return nil, err
	}
	defer stopInst()

	queries, err := workload.Queries(g.N(), cfg.Queries, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	fetch := func(base string, q int) (time.Duration, error) {
		url := fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d", base, q, cfg.K)
		start := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("exp: query %d returned %d", q, resp.StatusCode)
		}
		return time.Since(start), nil
	}

	// Warm both daemons (page-in, pools) before measuring.
	for i := 0; i < 8 && i < len(queries); i++ {
		if _, err := fetch(baseURL, int(queries[i])); err != nil {
			return nil, err
		}
		if _, err := fetch(instURL, int(queries[i])); err != nil {
			return nil, err
		}
	}

	if progress != nil {
		fmt.Fprintf(progress, "obs: interleaving %d queries through baseline and instrumented daemons ...\n", len(queries))
	}
	baseNS := make([]int64, 0, len(queries))
	instNS := make([]int64, 0, len(queries))
	for i, q := range queries {
		// Alternate which daemon goes first so ordering effects cancel too.
		first, second := baseURL, instURL
		firstNS, secondNS := &baseNS, &instNS
		if i%2 == 1 {
			first, second = instURL, baseURL
			firstNS, secondNS = &instNS, &baseNS
		}
		d1, err := fetch(first, int(q))
		if err != nil {
			return nil, err
		}
		d2, err := fetch(second, int(q))
		if err != nil {
			return nil, err
		}
		*firstNS = append(*firstNS, int64(d1))
		*secondNS = append(*secondNS, int64(d2))
	}

	res := &ObsBenchResult{
		GraphNodes:           g.N(),
		GraphEdges:           g.M(),
		K:                    cfg.K,
		Queries:              len(queries),
		Cores:                runtime.NumCPU(),
		BaselineMedianNS:     medianInt64(baseNS),
		InstrumentedMedianNS: medianInt64(instNS),
	}
	res.OverheadPct = 100 * (float64(res.InstrumentedMedianNS) - float64(res.BaselineMedianNS)) / float64(res.BaselineMedianNS)
	res.SlowLogEntries = len(instrumented.SlowLog().Snapshot(0))

	fams, err := ValidateExposition(instURL)
	res.Families = fams
	res.ExpositionValid = err == nil
	if err != nil {
		return res, err
	}
	return res, nil
}

func medianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// WriteObsBench renders the result and optionally writes BENCH_obs.json.
func WriteObsBench(w io.Writer, res *ObsBenchResult, jsonPath string) error {
	fmt.Fprintf(w, "graph: n=%d m=%d; k=%d, %d queries, %d cores\n",
		res.GraphNodes, res.GraphEdges, res.K, res.Queries, res.Cores)
	fmt.Fprintf(w, "median latency: baseline %v, instrumented %v (overhead %+.2f%%)\n",
		time.Duration(res.BaselineMedianNS).Round(time.Microsecond),
		time.Duration(res.InstrumentedMedianNS).Round(time.Microsecond),
		res.OverheadPct)
	fmt.Fprintf(w, "exposition: %d families, valid=%v; slowlog held %d entries\n",
		res.Families, res.ExpositionValid, res.SlowLogEntries)
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
