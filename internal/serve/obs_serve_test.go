package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lbindex"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/partition"
)

// scrapeMetrics fetches and parses the daemon's /metrics exposition,
// failing the test on any malformed line — the same strictness a real
// Prometheus scraper applies.
func scrapeMetrics(t *testing.T, baseURL string) map[string]*obs.Family {
	t.Helper()
	resp, body := get(t, baseURL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	fams, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, body)
	}
	return fams
}

// TestMetricsEndpoint drives exact, cached and approx traffic through one
// daemon and asserts the /metrics exposition parses and covers the query,
// cache, batching and maintenance families with values matching the
// traffic actually sent.
func TestMetricsEndpoint(t *testing.T) {
	g, idx := fixture(t)
	_, ts := newTestServer(t, g, idx, Config{})

	// Two distinct exact queries, then a repeat (cache hit), then approx.
	for _, q := range []string{"q=3&k=5", "q=7&k=5", "q=3&k=5", "q=9&k=5&mode=approx&eps=0.2&delta=0"} {
		resp, body := get(t, ts.URL+"/v1/reverse-topk?"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: %d %s", q, resp.StatusCode, body)
		}
		if id := resp.Header.Get(RequestIDHeader); len(id) != 16 {
			t.Fatalf("query %s: response request ID %q, want 16 hex chars", q, id)
		}
	}

	fams := scrapeMetrics(t, ts.URL)
	for _, name := range []string{
		"rtk_queries_served_total",
		"rtk_queries_computed_total",
		"rtk_query_cache_total",
		"rtk_queries_rejected_total",
		"rtk_query_failures_total",
		"rtk_query_duration_seconds",
		"rtk_query_phase_seconds",
		"rtk_cache_bytes",
		"rtk_cache_entries",
		"rtk_cache_evictions_total",
		"rtk_epoch",
		"rtk_epoch_swaps_total",
		"rtk_nodes",
		"rtk_inflight",
		"rtk_maint_queue_depth",
		"rtk_enqueued_watermark",
		"rtk_applied_watermark",
		"rtk_maint_duration_seconds",
		"rtk_maint_errors_total",
		"rtk_checkpoint_age_seconds",
		"rtk_approx_rounds_total",
		"rtk_uptime_seconds",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	// The admission batcher's families went with it, and the overlay's
	// with the overlay.
	for _, name := range []string{"rtk_spmm_groups_total", "rtk_spmm_batched_queries_total", "rtk_overlay_delta_edges", "rtk_compactions_total"} {
		if fams[name] != nil {
			t.Errorf("family %s still exposed", name)
		}
	}

	if v, ok := obs.SampleValue(fams, "rtk_queries_served_total", map[string]string{"mode": "exact"}); !ok || v != 3 {
		t.Errorf("served{mode=exact} = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := obs.SampleValue(fams, "rtk_queries_served_total", map[string]string{"mode": "approx"}); !ok || v != 1 {
		t.Errorf("served{mode=approx} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := obs.SampleValue(fams, "rtk_queries_computed_total", map[string]string{"mode": "exact"}); !ok || v != 2 {
		t.Errorf("computed{mode=exact} = %v (ok=%v), want 2", v, ok)
	}
	if v, ok := obs.SampleValue(fams, "rtk_query_cache_total", map[string]string{"status": "hit"}); !ok || v != 1 {
		t.Errorf("cache{status=hit} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := obs.SampleValue(fams, "rtk_query_duration_seconds_count", map[string]string{"mode": "exact"}); !ok || v != 3 {
		t.Errorf("query_duration_count{mode=exact} = %v (ok=%v), want 3", v, ok)
	}
	// The computed queries produced pmpn phase observations.
	if v, ok := obs.SampleValue(fams, "rtk_query_phase_seconds_count", map[string]string{"phase": "pmpn"}); !ok || v < 2 {
		t.Errorf("phase_count{phase=pmpn} = %v (ok=%v), want >= 2", v, ok)
	}
	if v, ok := obs.SampleValue(fams, "rtk_nodes", nil); !ok || v != float64(g.N()) {
		t.Errorf("rtk_nodes = %v (ok=%v), want %d", v, ok, g.N())
	}

	// A client error surfaces in the unified error account, labeled by
	// handler and status.
	if resp, _ := get(t, ts.URL+"/v1/reverse-topk?q=bogus&k=5"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed q returned %d, want 400", resp.StatusCode)
	}
	fams = scrapeMetrics(t, ts.URL)
	if v, ok := obs.SampleValue(fams, "rtk_http_errors_total", map[string]string{"handler": "query", "status": "400"}); !ok || v != 1 {
		t.Errorf("http_errors{query,400} = %v (ok=%v), want 1", v, ok)
	}
}

// TestMetricsDurable asserts the WAL and checkpoint families move when a
// durable daemon ingests edits.
func TestMetricsDurable(t *testing.T) {
	g, idx := fixture(t)
	jp := t.TempDir() + "/edits.wal"
	s, _, err := NewDurable(g, idx, Config{}, DurabilityConfig{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := newHTTPServer(t, s)

	ins := findInserts(t, g, 1)[0]
	body := fmt.Sprintf(`{"edits":[{"from":%d,"to":%d,"weight":0.5}],"wait":true}`, ins.From, ins.To)
	resp, rb := post(t, ts+"/v1/edits", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edits: %d %s", resp.StatusCode, rb)
	}

	fams := scrapeMetrics(t, ts)
	if v, ok := obs.SampleValue(fams, "rtk_wal_appended_bytes_total", nil); !ok || v <= 0 {
		t.Errorf("wal_appended_bytes = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := obs.SampleValue(fams, "rtk_wal_append_seconds_count", nil); !ok || v != 1 {
		t.Errorf("wal_append_count = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := obs.SampleValue(fams, "rtk_journal_bytes", nil); !ok || v <= 0 {
		t.Errorf("journal_bytes = %v (ok=%v), want > 0", v, ok)
	}
	if fams["rtk_checkpoints_total"] == nil || fams["rtk_checkpoint_duration_seconds"] == nil {
		t.Error("checkpoint families missing from durable exposition")
	}
	if v, ok := obs.SampleValue(fams, "rtk_epoch_swaps_total", nil); !ok || v != 1 {
		t.Errorf("epoch_swaps = %v (ok=%v), want 1", v, ok)
	}
}

// newTestListener mounts a handler on a test HTTP listener and returns its
// base URL.
func newTestListener(t *testing.T, h http.Handler) string {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs.URL
}

// newHTTPServer mounts an already-built server on a test listener.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	return newTestListener(t, s.Handler())
}

// post issues a JSON POST and returns the response and body.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestStatsJSONShape pins the exact top-level key set of /v1/stats: the
// counters now live on the metric registry, and this test is the contract
// that the migration kept the JSON wire shape intact for existing scrapers.
func TestStatsJSONShape(t *testing.T) {
	g, idx := fixture(t)
	_, ts := newTestServer(t, g, idx, Config{})

	if resp, body := get(t, ts.URL+"/v1/reverse-topk?q=2&k=4"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	resp, body := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: %d", resp.StatusCode)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	// Every always-present pre-migration key must still be there (omitempty
	// keys appear only on durable/sharded daemons and are covered by their
	// own tests).
	want := []string{
		"epoch", "nodes", "max_k", "served", "computed", "cache_hits",
		"coalesced", "rejected", "errors", "epoch_swaps", "cache_len",
		"cache_bytes", "cache_cap_bytes", "inflight", "worker_budget",
		"draining", "uptime_seconds",
		"approx_computed", "approx_rounds",
		"enqueued_watermark", "applied_watermark", "pending_edits",
		"maint_errors", "last_maint_ms",
		"last_affected_origins", "last_affected_hubs", "nodes_grown",
		"graph_sha256",
	}
	for _, k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("stats key %q missing", k)
		}
	}
	// Keys of deleted stages: the admission batcher's, the anytime tier's
	// Monte Carlo stage's and the overlay's.
	for _, k := range []string{"spmm_groups", "spmm_batched_queries", "approx_mc_walks",
		"overlay_patched_nodes", "overlay_delta_edges", "overlay_generation", "compactions"} {
		if _, ok := got[k]; ok {
			t.Errorf("stats key %q outlived the stage that fed it", k)
		}
	}
	if got["served"].(float64) != 1 || got["computed"].(float64) != 1 {
		t.Errorf("served=%v computed=%v, want 1/1", got["served"], got["computed"])
	}
}

// logBuffer is a goroutine-safe sink for a test slog.Logger.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("malformed log line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func newTestLogger() (*logBuffer, *slog.Logger) {
	b := &logBuffer{}
	return b, slog.New(slog.NewJSONHandler(b, nil))
}

// TestRequestIDPropagation runs a 2-shard fan-out topology with structured
// logging on every daemon and checks that a client-supplied request ID is
// echoed on the coordinator's response, stamped onto every proxied shard
// call, and repeated verbatim in the coordinator's and every shard's log
// line — one grep joins the whole query's story across three processes.
func TestRequestIDPropagation(t *testing.T) {
	g, err := gen.WebGraph(150, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 12
	opts.HubBudget = 4
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := partition.FromParts(g.N(), 2, []int32{0, 75, 150})
	if err != nil {
		t.Fatal(err)
	}
	shardBufs := make([]*logBuffer, 2)
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		slice, err := idx.ShardSlice(pm, i)
		if err != nil {
			t.Fatal(err)
		}
		var logger *slog.Logger
		shardBufs[i], logger = newTestLogger()
		srv, err := New(g, slice, Config{Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		urls[i] = newTestListener(t, srv.Handler())
	}
	fanBuf, fanLogger := newTestLogger()
	fan, err := NewFanout(FanoutConfig{Shards: urls, Logger: fanLogger})
	if err != nil {
		t.Fatal(err)
	}
	fanURL := newTestListener(t, fan.Handler())

	const reqID = "feedc0defeedc0de"
	req, err := http.NewRequest(http.MethodGet, fanURL+"/v1/reverse-topk?q=5&k=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator query: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); got != reqID {
		t.Fatalf("coordinator echoed request ID %q, want %q", got, reqID)
	}

	coord := fanBuf.lines(t)
	found := false
	for _, line := range coord {
		if line["msg"] == "fanout_query" && line["request_id"] == reqID {
			found = true
		}
	}
	if !found {
		t.Errorf("coordinator log has no fanout_query line with request_id=%s: %v", reqID, coord)
	}
	for i, buf := range shardBufs {
		lines := buf.lines(t)
		found := false
		for _, line := range lines {
			if line["msg"] == "query" && line["request_id"] == reqID {
				found = true
				for _, key := range []string{"mode", "q", "k", "cache", "status", "duration_ms"} {
					if _, ok := line[key]; !ok {
						t.Errorf("shard %d query log line missing %q: %v", i, key, line)
					}
				}
			}
		}
		if !found {
			t.Errorf("shard %d log has no query line with request_id=%s: %v", i, reqID, lines)
		}
	}

	// The coordinator's /v1/stats reports per-shard summaries with the
	// proxied calls just made, and keeps the pre-existing key set.
	resp2, body := get(t, fanURL+"/v1/stats")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: %d", resp2.StatusCode)
	}
	var fs map[string]any
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"shards", "fanouts", "served", "shard_errors", "edits_fanned", "uptime_seconds", "shard_stats", "shard_summaries"} {
		if _, ok := fs[k]; !ok {
			t.Errorf("fanout stats key %q missing", k)
		}
	}
	var stats FanoutStatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.ShardSummaries) != 2 {
		t.Fatalf("shard_summaries len %d, want 2", len(stats.ShardSummaries))
	}
	for i, sum := range stats.ShardSummaries {
		if sum.Requests < 1 {
			t.Errorf("shard %d summary requests=%d, want >= 1", i, sum.Requests)
		}
		if sum.Errors != 0 || sum.LastErrorRequestID != "" {
			t.Errorf("shard %d summary reports errors with none induced: %+v", i, sum)
		}
		if sum.URL != urls[i] {
			t.Errorf("shard %d summary url %q, want %q", i, sum.URL, urls[i])
		}
		if sum.Requests > 0 && (sum.P50Ms <= 0 || sum.P99Ms < sum.P50Ms) {
			t.Errorf("shard %d summary quantiles implausible: %+v", i, sum)
		}
	}

	// The coordinator exposes its own /metrics.
	fams := scrapeMetrics(t, fanURL)
	if v, ok := obs.SampleValue(fams, "rtk_fanouts_total", nil); !ok || v != 1 {
		t.Errorf("rtk_fanouts_total = %v (ok=%v), want 1", v, ok)
	}
	for i := 0; i < 2; i++ {
		label := map[string]string{"shard": fmt.Sprint(i)}
		if v, ok := obs.SampleValue(fams, "rtk_fanout_shard_seconds_count", label); !ok || v < 1 {
			t.Errorf("fanout_shard_seconds_count{shard=%d} = %v (ok=%v), want >= 1", i, v, ok)
		}
	}
}

// TestFanoutErrorAccounting kills one shard and checks the per-shard error
// counter and last-error request ID light up for that shard only.
func TestFanoutErrorAccounting(t *testing.T) {
	fx := newFanoutFixture(t, oracle.Family(t, "web"), 2, []int32{0, 150, 300})
	fx.shardSrv[1].Close()
	fanURL := fx.fanSrv.URL

	const reqID = "abad1deaabad1dea"
	req, _ := http.NewRequest(http.MethodGet, fanURL+"/v1/reverse-topk?q=1&k=3", nil)
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("query with dead shard: %d, want 502", resp.StatusCode)
	}

	_, body := get(t, fanURL+"/v1/stats")
	var stats FanoutStatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ShardErrors < 1 {
		t.Errorf("shard_errors = %d, want >= 1", stats.ShardErrors)
	}
	if got := stats.ShardSummaries[1]; got.Errors < 1 || got.LastErrorRequestID != reqID {
		t.Errorf("dead shard summary = %+v, want errors >= 1 and last_error_request_id=%s", got, reqID)
	}
	if got := stats.ShardSummaries[0]; got.LastErrorRequestID == reqID && got.Errors > 0 {
		// The live shard served its call; the /v1/stats fan-out itself also
		// touches the dead shard but must not charge the live one.
		t.Errorf("live shard charged an error: %+v", got)
	}
}

// TestSlowLogEndpoint records every query (negative threshold) and checks
// the ring serves them newest first with request IDs and phase breakdowns,
// and that the ?threshold= filter and capacity bound hold.
func TestSlowLogEndpoint(t *testing.T) {
	g, idx := fixture(t)
	_, ts := newTestServer(t, g, idx, Config{SlowLogThreshold: -1, SlowLogCapacity: 4})

	var ids []string
	for i := 0; i < 6; i++ {
		resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=3", ts.URL, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
		ids = append(ids, resp.Header.Get(RequestIDHeader))
	}

	resp, body := get(t, ts.URL+"/debug/slowlog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slowlog: %d %s", resp.StatusCode, body)
	}
	var sl struct {
		Capacity int             `json:"capacity"`
		Count    int             `json:"count"`
		Entries  []obs.SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatalf("slowlog not JSON: %v", err)
	}
	if sl.Capacity != 4 || sl.Count != 4 || len(sl.Entries) != 4 {
		t.Fatalf("slowlog capacity=%d count=%d entries=%d, want 4/4/4 (ring must bound)", sl.Capacity, sl.Count, len(sl.Entries))
	}
	// Newest first: the last 4 of the 6 queries, reversed.
	for i, e := range sl.Entries {
		if want := ids[5-i]; e.RequestID != want {
			t.Errorf("entry %d request_id %q, want %q", i, e.RequestID, want)
		}
		if e.Route != "reverse-topk" {
			t.Errorf("entry %d route %q", i, e.Route)
		}
		if len(e.PhasesMS) == 0 {
			t.Errorf("entry %d has no phase breakdown: %+v", i, e)
		}
	}

	// An impossible threshold filters everything out.
	if _, body := get(t, ts.URL+"/debug/slowlog?threshold=10m"); !strings.Contains(string(body), `"count":0`) {
		t.Errorf("threshold=10m returned entries: %s", body)
	}
	if resp, _ := get(t, ts.URL+"/debug/slowlog?threshold=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed threshold returned %d, want 400", resp.StatusCode)
	}
}

// TestFallbackObservability: a query that ends in exact fallbacks reports
// them where the phases are reported — the rtk_fallback_* families, the
// request log line and the slow-log detail — with the counts the engine's
// own QueryStats give for the same query, so a slow query says from its log
// line alone whether its fallbacks ran to convergence and whether they swept
// their forward ball or all n rows, how many edges their forward pushes read
// and how many of them the push decided; and the same lines say how many
// edges the PMPN read and whether its backward push handed over to the power
// method.
func TestFallbackObservability(t *testing.T) {
	g, idx := fixture(t)
	view, err := core.NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := view.Query(1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.ExactFallbacks == 0 || want.FallbackIters == 0 {
		t.Fatalf("q=1 k=3 no longer falls back (%+v); pick another query", want)
	}
	if want.FallbackBallIters == 0 || want.FallbackBallIters > want.FallbackIters {
		t.Fatalf("q=1 k=3: %d of %d fallback iterations swept the forward ball; want some, at most all", want.FallbackBallIters, want.FallbackIters)
	}
	if want.FallbackPushEdges == 0 || want.FallbackPushDecided >= want.ExactFallbacks {
		t.Fatalf("q=1 k=3: the fallbacks' push read %d edges and decided %d of %d; want some read, some handed over", want.FallbackPushEdges, want.FallbackPushDecided, want.ExactFallbacks)
	}
	if want.PMPNSupport == 0 || want.Screened == 0 || want.Candidates == 0 || want.PMPNEdges == 0 {
		t.Fatalf("q=1 k=3 reports an empty proximity vector, an empty screen, no candidates or no edge read (%+v)", want)
	}

	logs, logger := newTestLogger()
	_, ts := newTestServer(t, g, idx, Config{SlowLogThreshold: -1, Logger: logger})
	if resp, body := get(t, ts.URL+"/v1/reverse-topk?q=1&k=3"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}

	fams := scrapeMetrics(t, ts.URL)
	if v, ok := obs.SampleValue(fams, "rtk_fallback_iterations_count", nil); !ok || v != 1 {
		t.Errorf("rtk_fallback_iterations_count = %v (ok=%v), want 1", v, ok)
	}
	mean := float64(want.FallbackIters) / float64(want.ExactFallbacks)
	if v, ok := obs.SampleValue(fams, "rtk_fallback_iterations_sum", nil); !ok || v != mean {
		t.Errorf("rtk_fallback_iterations_sum = %v (ok=%v), want %v", v, ok, mean)
	}
	if v, ok := obs.SampleValue(fams, "rtk_fallback_early_stops_total", nil); !ok || v != float64(want.FallbackEarlyStops) {
		t.Errorf("rtk_fallback_early_stops_total = %v (ok=%v), want %d", v, ok, want.FallbackEarlyStops)
	}
	if v, ok := obs.SampleValue(fams, "rtk_fallback_push_decided_total", nil); !ok || v != float64(want.FallbackPushDecided) {
		t.Errorf("rtk_fallback_push_decided_total = %v (ok=%v), want %d", v, ok, want.FallbackPushDecided)
	}

	var line map[string]any
	for _, l := range logs.lines(t) {
		if l["msg"] == "query" {
			line = l
		}
	}
	if got, ok := line["pmpn_tail"].(float64); !ok || got != want.PMPNTail {
		t.Errorf("log line pmpn_tail = %v, want %v (line %v)", line["pmpn_tail"], want.PMPNTail, line)
	}
	if got, ok := line["pmpn_handover"].(bool); !ok || got != want.PMPNHandover {
		t.Errorf("log line pmpn_handover = %v, want %v (line %v)", line["pmpn_handover"], want.PMPNHandover, line)
	}
	for field, n := range map[string]int{
		"pmpn_iters":            want.PMPNIters,
		"pmpn_edges":            want.PMPNEdges,
		"pmpn_support":          want.PMPNSupport,
		"screened":              want.Screened,
		"candidates":            want.Candidates,
		"refine_steps":          want.RefineSteps,
		"fallbacks":             want.ExactFallbacks,
		"fallback_iters":        want.FallbackIters,
		"fallback_push_edges":   want.FallbackPushEdges,
		"fallback_push_decided": want.FallbackPushDecided,
		"fallback_ball_iters":   want.FallbackBallIters,
		"fallback_early_stops":  want.FallbackEarlyStops,
	} {
		if got, ok := line[field].(float64); !ok || got != float64(n) {
			t.Errorf("log line %s = %v, want %d (line %v)", field, line[field], n, line)
		}
	}

	_, body := get(t, ts.URL+"/debug/slowlog")
	detail := fmt.Sprintf(`"detail":"q=1 k=3 mode=exact cache=MISS pmpn_iters=%d pmpn_edges=%d pmpn_handover=%v pmpn_support=%d pmpn_tail=%v screened=%d candidates=%d refine_steps=%d fallbacks=%d fallback_iters=%d fallback_push_edges=%d fallback_push_decided=%d fallback_ball_iters=%d fallback_early_stops=%d"`,
		want.PMPNIters, want.PMPNEdges, want.PMPNHandover, want.PMPNSupport, want.PMPNTail, want.Screened, want.Candidates, want.RefineSteps, want.ExactFallbacks, want.FallbackIters, want.FallbackPushEdges, want.FallbackPushDecided, want.FallbackBallIters, want.FallbackEarlyStops)
	if !strings.Contains(string(body), detail) {
		t.Errorf("slow-log entry is not %s: %s", detail, body)
	}

	// The web fixture's 300 nodes hand every fallback over to the slab; the
	// spam family's queries have fallbacks the push decides.
	tab := oracle.Family(t, "spam")
	view, err = core.NewView(tab.Graph, tab.Index(t))
	if err != nil {
		t.Fatal(err)
	}
	logs, logger = newTestLogger()
	_, ts = newTestServer(t, tab.Graph, tab.Index(t), Config{Logger: logger})
	decided := 0
	for _, q := range tab.Queries {
		_, st, err := view.Query(q, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=10", ts.URL, q)); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
		decided += st.FallbackPushDecided
	}
	if decided == 0 {
		t.Fatal("no spam query has a fallback the push decided; pick another k")
	}
	if v, ok := obs.SampleValue(scrapeMetrics(t, ts.URL), "rtk_fallback_push_decided_total", nil); !ok || v != float64(decided) {
		t.Errorf("spam: rtk_fallback_push_decided_total = %v (ok=%v), want %d", v, ok, decided)
	}
	logged := 0.0
	for _, l := range logs.lines(t) {
		if n, ok := l["fallback_push_decided"].(float64); ok {
			logged += n
		}
	}
	if logged != float64(decided) {
		t.Errorf("spam: the log lines' fallback_push_decided sum to %v, want %d", logged, decided)
	}
}

// TestExpositionStable scrapes twice and diffs the family sets — a family
// that appears only after traffic would be invisible to dashboards built
// from a cold scrape.
func TestExpositionStable(t *testing.T) {
	g, idx := fixture(t)
	_, ts := newTestServer(t, g, idx, Config{})

	cold := scrapeMetrics(t, ts.URL)
	if resp, _ := get(t, ts.URL+"/v1/reverse-topk?q=1&k=3"); resp.StatusCode != http.StatusOK {
		t.Fatal("query failed")
	}
	warm := scrapeMetrics(t, ts.URL)
	var coldNames, warmNames []string
	for n := range cold {
		coldNames = append(coldNames, n)
	}
	for n := range warm {
		warmNames = append(warmNames, n)
	}
	sort.Strings(coldNames)
	sort.Strings(warmNames)
	if strings.Join(coldNames, ",") != strings.Join(warmNames, ",") {
		t.Errorf("family set changed between scrapes:\ncold: %v\nwarm: %v", coldNames, warmNames)
	}
}
