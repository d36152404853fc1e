package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Fanout is the HTTP transport of the sharded query layer: a coordinator
// daemon that owns no graph and no index, only the base URLs of P stock
// rtkserve shard daemons, each loaded with one shard-slice index file.
// A query fans out to every shard — each computes its own PMPN against its
// replicated graph and decides only the candidates its partition owns —
// and the disjoint per-shard answers merge into the exact global answer.
// Edits broadcast to every shard (the graph is replicated), and each shard
// re-indexes only the affected rows it owns (see Server.runBatch), so one
// POST fans the refresh cost out P ways too.
//
// The in-process transport (internal/shard.Coordinator) additionally
// shares one PMPN across shards and exchanges pruning bounds between
// rounds; over HTTP the shards are deliberately kept stock — the
// coordinator needs nothing from them beyond the ordinary serving API.
//
// Every proxied call carries the originating request's correlation ID in
// RequestIDHeader, so one client query can be traced through the
// coordinator's log line and every shard's log line by a single ID.
type Fanout struct {
	shards []string
	client *http.Client
	start  time.Time
	logger *slog.Logger

	reg     *obs.Registry
	fanouts *obs.Counter
	served  *obs.Counter
	edits   *obs.Counter

	shardErrors *obs.CounterVec   // rtk_fanout_shard_errors_total{shard}
	shardDur    *obs.HistogramVec // rtk_fanout_shard_seconds{shard}

	// lastErrID[i] is the request ID of shard i's most recent failed call,
	// surfaced in /v1/stats so an operator can go straight from "shard 2 is
	// erroring" to the matching log lines on both daemons.
	lastErrID []atomic.Pointer[string]
}

// FanoutConfig parameterizes NewFanout.
type FanoutConfig struct {
	// Shards lists the shard daemons' base URLs, in shard order.
	Shards []string
	// Timeout bounds each proxied shard call; 0 selects 30s.
	Timeout time.Duration
	// Logger receives one structured line per coordinator request. Nil
	// disables request logging.
	Logger *slog.Logger
}

// NewFanout builds the coordinator. Shard reachability is not probed here —
// /healthz reports it live.
func NewFanout(cfg FanoutConfig) (*Fanout, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("serve: fan-out coordinator needs at least one shard URL")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	shards := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			return nil, fmt.Errorf("serve: empty shard URL at position %d", i)
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		shards[i] = s
	}
	reg := obs.NewRegistry()
	f := &Fanout{
		shards:      shards,
		client:      &http.Client{Timeout: timeout},
		start:       time.Now(),
		logger:      cfg.Logger,
		reg:         reg,
		fanouts:     reg.NewCounter("rtk_fanouts_total", "Queries fanned out to the shard set."),
		served:      reg.NewCounter("rtk_fanout_served_total", "Queries answered with a merged shard result."),
		edits:       reg.NewCounter("rtk_fanout_edits_total", "Edit batches broadcast to every shard."),
		shardErrors: reg.NewCounterVec("rtk_fanout_shard_errors_total", "Failed proxied shard calls (unreachable, non-success status, or malformed body), by shard index.", "shard"),
		shardDur:    reg.NewHistogramVec("rtk_fanout_shard_seconds", "Proxied shard call latency, by shard index.", phaseBuckets, "shard"),
		lastErrID:   make([]atomic.Pointer[string], len(shards)),
	}
	reg.NewGaugeFunc("rtk_fanout_shards", "Configured shard count.", func() float64 {
		return float64(len(f.shards))
	})
	reg.NewGaugeFunc("rtk_fanout_uptime_seconds", "Seconds since the coordinator started.", func() float64 {
		return time.Since(f.start).Seconds()
	})
	return f, nil
}

// Shards returns the shard base URLs, normalized.
func (f *Fanout) Shards() []string { return f.shards }

// Registry returns the coordinator's metric registry (the /metrics source).
func (f *Fanout) Registry() *obs.Registry { return f.reg }

// Handler returns the coordinator's route table — the same paths a stock
// daemon serves, so clients and load balancers cannot tell the difference:
//
//	GET  /v1/reverse-topk?q=<node>&k=<k>  — fan out, merge the shard answers
//	GET  /v1/stats                        — coordinator counters + every shard's stats
//	GET  /healthz                         — 200 only when every shard is healthy
//	GET  /metrics                         — coordinator metrics, Prometheus text format
//	POST /v1/edits                        — broadcast the batch to every shard
func (f *Fanout) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/reverse-topk", f.handleQuery)
	mux.HandleFunc("GET /v1/stats", f.handleStats)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.Handle("GET /metrics", f.reg.Handler())
	mux.HandleFunc("POST /v1/edits", f.handleEdits)
	return mux
}

// shardReply is one shard's response to a fanned-out call.
type shardReply struct {
	status int
	body   []byte
	err    error
}

// recordShardError charges one failed proxied call to shard i and remembers
// the request ID it failed under.
func (f *Fanout) recordShardError(i int, reqID string) {
	f.shardErrors.With(strconv.Itoa(i)).Inc()
	if reqID != "" {
		f.lastErrID[i].Store(&reqID)
	}
}

// fanGet issues one GET per shard concurrently, stamping each with the
// originating request's correlation ID and timing each call.
func (f *Fanout) fanGet(path, reqID string) []shardReply {
	replies := make([]shardReply, len(f.shards))
	var wg sync.WaitGroup
	for i, base := range f.shards {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			replies[i] = f.timedDo(i, http.MethodGet, url, nil, reqID)
		}(i, base+path)
	}
	wg.Wait()
	return replies
}

// timedDo proxies one call to shard i, observing its latency.
func (f *Fanout) timedDo(i int, method, url string, body []byte, reqID string) shardReply {
	start := time.Now()
	rep := f.do(method, url, body, reqID)
	f.shardDur.With(strconv.Itoa(i)).Observe(time.Since(start).Seconds())
	return rep
}

func (f *Fanout) do(method, url string, body []byte, reqID string) shardReply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return shardReply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(RequestIDHeader, reqID)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return shardReply{err: err}
	}
	defer resp.Body.Close()
	// Query responses scale with the answer-set size, so the cap is a
	// generous backstop against a misbehaving peer, not the tiny edits-body
	// bound — and overflow is an explicit error, never a silent truncation
	// that would surface as a confusing parse failure.
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardReply+1))
	if err != nil {
		return shardReply{err: err}
	}
	if len(b) > maxShardReply {
		return shardReply{err: fmt.Errorf("response exceeds %d bytes", maxShardReply)}
	}
	return shardReply{status: resp.StatusCode, body: b}
}

// maxShardReply bounds one proxied shard response. Far above any plausible
// answer (it fits a ~hundred-million-node result list) while still bounding
// coordinator memory per call.
const maxShardReply = 1 << 30

// relayFailure maps fanned-out shard replies onto one coordinator response
// when any shard did not return want: a shard-reported 4xx is the client's
// fault and is relayed verbatim (every shard validates identically, so the
// first one speaks for all); anything else is a 502 naming the shard. Every
// failing shard is charged an error — not just the one whose failure is
// relayed — so the per-shard counters stay truthful under partial outages.
// It returns the status it wrote, or 0 when every shard returned want and
// nothing was written.
func (f *Fanout) relayFailure(w http.ResponseWriter, replies []shardReply, want int, reqID string) int {
	first := -1
	for i, r := range replies {
		if r.err == nil && r.status == want {
			continue
		}
		f.recordShardError(i, reqID)
		if first < 0 {
			first = i
		}
	}
	if first < 0 {
		return 0
	}
	r := replies[first]
	if r.err != nil {
		writeError(w, http.StatusBadGateway, "shard %d (%s) unreachable: %v", first, f.shards[first], r.err)
		return http.StatusBadGateway
	}
	if r.status >= 400 && r.status < 500 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(r.status)
		w.Write(r.body)
		return r.status
	}
	writeError(w, http.StatusBadGateway, "shard %d (%s) returned %d: %s", first, f.shards[first], r.status, r.body)
	return http.StatusBadGateway
}

// logRequest emits the coordinator's one structured line per request.
func (f *Fanout) logRequest(route, reqID string, status int, elapsed time.Duration, extra ...any) {
	if f.logger == nil {
		return
	}
	args := append([]any{
		"request_id", reqID,
		"shards", len(f.shards),
		"status", status,
		"duration_ms", float64(elapsed) / float64(time.Millisecond),
	}, extra...)
	f.logger.Info(route, args...)
}

func (f *Fanout) handleQuery(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	reqID := ensureRequestID(w, r)
	f.fanouts.Inc()
	replies := f.fanGet("/v1/reverse-topk?"+r.URL.RawQuery, reqID)
	if status := f.relayFailure(w, replies, http.StatusOK, reqID); status != 0 {
		f.logRequest("fanout_query", reqID, status, time.Since(begin), "query", r.URL.RawQuery)
		return
	}
	if r.URL.Query().Get("mode") == ModeApprox {
		status := f.mergeApprox(w, replies, reqID)
		f.logRequest("fanout_query", reqID, status, time.Since(begin), "query", r.URL.RawQuery, "mode", ModeApprox)
		return
	}
	merged := QueryResponse{}
	var maxEpoch uint64
	for i, rep := range replies {
		var qr QueryResponse
		if err := json.Unmarshal(rep.body, &qr); err != nil {
			f.recordShardError(i, reqID)
			writeError(w, http.StatusBadGateway, "shard %d returned malformed body: %v", i, err)
			f.logRequest("fanout_query", reqID, http.StatusBadGateway, time.Since(begin), "query", r.URL.RawQuery)
			return
		}
		merged.Query, merged.K = qr.Query, qr.K
		if qr.Epoch > maxEpoch {
			maxEpoch = qr.Epoch
		}
		merged.Results = append(merged.Results, qr.Results...)
	}
	// Partitions are disjoint, so the union is a plain merge; sort restores
	// the global ascending order the single-engine answer uses.
	sort.Slice(merged.Results, func(i, j int) bool { return merged.Results[i] < merged.Results[j] })
	if merged.Results == nil {
		merged.Results = []graph.NodeID{}
	}
	merged.Count = len(merged.Results)
	merged.Epoch = maxEpoch
	f.served.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Shards", fmt.Sprintf("%d", len(f.shards)))
	body, _ := json.Marshal(merged)
	w.Write(body)
	f.logRequest("fanout_query", reqID, http.StatusOK, time.Since(begin), "query", r.URL.RawQuery)
}

// mergeApprox merges per-shard anytime answers. Partitions are disjoint, so
// guaranteed and maybe sets union by plain concatenation; the achieved ε is
// recomputed from the merged counts (each shard reports its local fraction,
// which does not average), and rounds/iteration diagnostics report the
// slowest shard — the fan-out's critical path. It returns the status it
// wrote: 200, or 502 for a shard body that does not parse.
func (f *Fanout) mergeApprox(w http.ResponseWriter, replies []shardReply, reqID string) int {
	merged := ApproxQueryResponse{}
	var maxEpoch uint64
	converged := true
	for i, rep := range replies {
		var ar ApproxQueryResponse
		if err := json.Unmarshal(rep.body, &ar); err != nil {
			f.recordShardError(i, reqID)
			writeError(w, http.StatusBadGateway, "shard %d returned malformed body: %v", i, err)
			return http.StatusBadGateway
		}
		merged.Query, merged.K = ar.Query, ar.K
		merged.Mode, merged.Eps = ar.Mode, ar.Eps
		if ar.Epoch > maxEpoch {
			maxEpoch = ar.Epoch
		}
		if ar.Rounds > merged.Rounds {
			merged.Rounds = ar.Rounds
		}
		if ar.PMPNIters > merged.PMPNIters {
			merged.PMPNIters = ar.PMPNIters
		}
		converged = converged && ar.Converged
		merged.Results = append(merged.Results, ar.Results...)
		merged.Maybe = append(merged.Maybe, ar.Maybe...)
	}
	sort.Slice(merged.Results, func(i, j int) bool { return merged.Results[i] < merged.Results[j] })
	sort.Slice(merged.Maybe, func(i, j int) bool { return merged.Maybe[i] < merged.Maybe[j] })
	if merged.Results == nil {
		merged.Results = []graph.NodeID{}
	}
	if merged.Maybe == nil {
		merged.Maybe = []graph.NodeID{}
	}
	merged.Count = len(merged.Results)
	merged.Epoch = maxEpoch
	merged.Converged = converged
	if len(merged.Maybe) > 0 {
		merged.EpsAchieved = float64(len(merged.Maybe)) / float64(len(merged.Results)+len(merged.Maybe))
	}
	f.served.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Shards", fmt.Sprintf("%d", len(f.shards)))
	body, _ := json.Marshal(merged)
	w.Write(body)
	return http.StatusOK
}

// FanoutShardSummary is one shard's health line in the coordinator's
// /v1/stats: proxied-call latency quantiles and error accounting, with the
// request ID of the most recent failure for cross-daemon log correlation.
type FanoutShardSummary struct {
	URL      string  `json:"url"`
	Requests int64   `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
	Errors   int64   `json:"errors"`
	// LastErrorRequestID is "" until the shard's first failed call.
	LastErrorRequestID string `json:"last_error_request_id"`
}

// FanoutStatsResponse is the JSON body of the coordinator's /v1/stats.
type FanoutStatsResponse struct {
	Shards        int     `json:"shards"`
	Fanouts       int64   `json:"fanouts"`
	Served        int64   `json:"served"`
	ShardErrors   int64   `json:"shard_errors"`
	EditsFanned   int64   `json:"edits_fanned"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ShardSummaries reports each shard's proxied-call latency quantiles
	// and error counts, in shard order.
	ShardSummaries []FanoutShardSummary `json:"shard_summaries"`
	// ShardStats carries each shard's own /v1/stats body verbatim (null
	// for an unreachable shard).
	ShardStats []json.RawMessage `json:"shard_stats"`
}

// shardSummaries builds the per-shard health lines from the live metrics.
func (f *Fanout) shardSummaries() []FanoutShardSummary {
	out := make([]FanoutShardSummary, len(f.shards))
	for i, url := range f.shards {
		label := strconv.Itoa(i)
		h := f.shardDur.With(label)
		s := FanoutShardSummary{
			URL:      url,
			Requests: int64(h.Count()),
			Errors:   int64(f.shardErrors.With(label).Value()),
		}
		if s.Requests > 0 {
			s.P50Ms = h.Quantile(0.5) * 1000
			s.P90Ms = h.Quantile(0.9) * 1000
			s.P99Ms = h.Quantile(0.99) * 1000
		}
		if id := f.lastErrID[i].Load(); id != nil {
			s.LastErrorRequestID = *id
		}
		out[i] = s
	}
	return out
}

func (f *Fanout) handleStats(w http.ResponseWriter, r *http.Request) {
	reqID := ensureRequestID(w, r)
	replies := f.fanGet("/v1/stats", reqID)
	resp := FanoutStatsResponse{
		Shards:         len(f.shards),
		Fanouts:        int64(f.fanouts.Value()),
		Served:         int64(f.served.Value()),
		ShardErrors:    int64(f.shardErrors.Total()),
		EditsFanned:    int64(f.edits.Value()),
		UptimeSeconds:  time.Since(f.start).Seconds(),
		ShardSummaries: f.shardSummaries(),
		ShardStats:     make([]json.RawMessage, len(f.shards)),
	}
	for i, rep := range replies {
		if rep.err == nil && rep.status == http.StatusOK && json.Valid(rep.body) {
			resp.ShardStats[i] = rep.body
		} else {
			resp.ShardStats[i] = json.RawMessage("null")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(resp)
	w.Write(body)
}

func (f *Fanout) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reqID := ensureRequestID(w, r)
	replies := f.fanGet("/healthz", reqID)
	var down []string
	for i, rep := range replies {
		if rep.err != nil || rep.status != http.StatusOK {
			down = append(down, f.shards[i])
		}
	}
	if len(down) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "shards down: %s\n", strings.Join(down, ", "))
		return
	}
	w.Write([]byte("ok\n"))
}

// handleEdits broadcasts the batch: every shard holds the full (replicated)
// graph, so each must apply the adjacency change, while the index refresh
// each performs is routed to its owned rows only — the batch's total
// re-indexing work is split P ways, not duplicated P times.
func (f *Fanout) handleEdits(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	reqID := ensureRequestID(w, r)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEditsBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading edits body: %v", err)
		return
	}
	var req EditsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed edits body: %v", err)
		return
	}
	// Validate before broadcasting — the same helper the shard daemons run,
	// so a bad batch is rejected here with the same message instead of
	// fanning out P doomed requests (and shards never see it).
	edits := make([]evolve.Edit, len(req.Edits))
	for i, e := range req.Edits {
		edits[i] = evolve.Edit{From: e.From, To: e.To, Weight: e.Weight, Remove: e.Remove}
	}
	if err := ValidateEdits(edits, req.Theta); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	f.edits.Inc()
	replies := make([]shardReply, len(f.shards))
	var wg sync.WaitGroup
	for i, base := range f.shards {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			replies[i] = f.timedDo(i, http.MethodPost, url, body, reqID)
		}(i, base+"/v1/edits")
	}
	wg.Wait()
	want := http.StatusAccepted
	if req.Wait {
		want = http.StatusOK
	}
	if status := f.relayFailure(w, replies, want, reqID); status != 0 {
		f.logRequest("fanout_edits", reqID, status, time.Since(begin), "edits", len(req.Edits))
		return
	}
	perShard := make([]EditsResponse, len(replies))
	for i, rep := range replies {
		if err := json.Unmarshal(rep.body, &perShard[i]); err != nil {
			f.recordShardError(i, reqID)
			writeError(w, http.StatusBadGateway, "shard %d returned malformed body: %v", i, err)
			f.logRequest("fanout_edits", reqID, http.StatusBadGateway, time.Since(begin), "edits", len(req.Edits))
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(want)
	out, _ := json.Marshal(struct {
		Shards []EditsResponse `json:"shards"`
	}{perShard})
	w.Write(out)
	f.logRequest("fanout_edits", reqID, want, time.Since(begin), "edits", len(req.Edits))
}
