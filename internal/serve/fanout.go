package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
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

// NewFanout builds the coordinator after checking its shard set: it reads
// every shard's /v1/stats and refuses unless the URL at position i serves
// shard i, every shard serves one of len(cfg.Shards) shards, and all of
// them report one partition bounds vector and one graph digest — the checks
// shard.NewInProc makes of its slices. A shard that cannot be reached is
// refused too, as nothing can then be known of it. Reachability after the
// start is reported live by /healthz.
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
	if err := f.checkShardSet(); err != nil {
		return nil, err
	}
	return f, nil
}

// checkShardSet reads every shard's /v1/stats and checks that position i
// serves shard i of one partition into len(f.shards) shards, all over one
// graph.
func (f *Fanout) checkShardSet() error {
	var bounds []int32
	var digest string
	for i, base := range f.shards {
		rep := f.do(http.MethodGet, base+"/v1/stats", nil, "")
		var st StatsResponse
		switch {
		case rep.err != nil:
			return fmt.Errorf("serve: shard %d (%s): reading /v1/stats: %v", i, f.shards[i], rep.err)
		case rep.status != http.StatusOK:
			return fmt.Errorf("serve: shard %d (%s): /v1/stats answered %d", i, f.shards[i], rep.status)
		}
		if err := json.Unmarshal(rep.body, &st); err != nil {
			return fmt.Errorf("serve: shard %d (%s): malformed /v1/stats: %v", i, f.shards[i], err)
		}
		switch {
		case st.ShardID == nil:
			return fmt.Errorf("serve: shard %d (%s) serves a full index, not a shard slice", i, f.shards[i])
		case *st.ShardID != i || st.ShardCount != len(f.shards):
			return fmt.Errorf("serve: shard %d (%s) serves shard %d of %d, want shard %d of %d",
				i, f.shards[i], *st.ShardID, st.ShardCount, i, len(f.shards))
		case i > 0 && !slices.Equal(st.PartitionBounds, bounds):
			return fmt.Errorf("serve: shard %d (%s) has partition bounds %v, shard 0 has %v",
				i, f.shards[i], st.PartitionBounds, bounds)
		case i > 0 && st.GraphSHA256 != digest:
			return fmt.Errorf("serve: shard %d (%s) serves graph %s, shard 0 (%s) serves graph %s",
				i, f.shards[i], st.GraphSHA256, f.shards[0], digest)
		}
		bounds, digest = st.PartitionBounds, st.GraphSHA256
	}
	return nil
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

// shardReply is one shard's response to a fanned-out call; shard is its
// ShardHeader.
type shardReply struct {
	status int
	shard  string
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

// broadcast sends the same request to every shard concurrently, stamping
// each with the originating request's correlation ID and timing each call.
func (f *Fanout) broadcast(method, path string, body []byte, reqID string) []shardReply {
	replies := make([]shardReply, len(f.shards))
	var wg sync.WaitGroup
	for i, base := range f.shards {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			start := time.Now()
			replies[i] = f.do(method, url, body, reqID)
			f.shardDur.With(strconv.Itoa(i)).Observe(time.Since(start).Seconds())
		}(i, base+path)
	}
	wg.Wait()
	return replies
}

// decodeReplies parses every shard's body as a T. On the first body that
// does not parse it charges that shard an error, writes a 502 naming it and
// returns nil.
func decodeReplies[T any](f *Fanout, w http.ResponseWriter, replies []shardReply, reqID string) []T {
	out := make([]T, len(replies))
	for i, rep := range replies {
		if err := json.Unmarshal(rep.body, &out[i]); err != nil {
			f.recordShardError(i, reqID)
			writeError(w, http.StatusBadGateway, "shard %d returned malformed body: %v", i, err)
			return nil
		}
	}
	return out
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
	return shardReply{status: resp.StatusCode, shard: resp.Header.Get(ShardHeader), body: b}
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
	logArgs := []any{"query", r.URL.RawQuery}
	approx := r.URL.Query().Get("mode") == ModeApprox
	if approx {
		logArgs = append(logArgs, "mode", ModeApprox)
	}
	replies := f.broadcast(http.MethodGet, "/v1/reverse-topk?"+r.URL.RawQuery, nil, reqID)
	status := f.relayFailure(w, replies, http.StatusOK, reqID)
	if status == 0 {
		status = f.writeMerged(w, replies, approx, reqID)
	}
	f.logRequest("fanout_query", reqID, status, time.Since(begin), logArgs...)
}

// writeMerged answers a query from the shards' answers, exact or approx
// alike: an exact body is an approx body's fields without the anytime ones.
// Partitions are disjoint, so the result and maybe sets union by plain
// concatenation, and a sort restores the global ascending order the
// single-engine answer uses. The epoch is the newest shard's, rounds and
// PMPN iterations the slowest shard's (the fan-out's critical path), and the
// answer converged only if every shard's did; the achieved ε is recomputed
// from the merged counts, since the shards' local fractions do not average.
// It returns the status it wrote: 200, or 502 for a reply that names another
// shard than its position's (a daemon restarted behind the URL with another
// slice) or whose body does not parse.
func (f *Fanout) writeMerged(w http.ResponseWriter, replies []shardReply, approx bool, reqID string) int {
	for i, rep := range replies {
		if want := shardName(i, len(f.shards)); rep.shard != want {
			f.recordShardError(i, reqID)
			writeError(w, http.StatusBadGateway, "shard %d (%s) answered as shard %q, want %q", i, f.shards[i], rep.shard, want)
			return http.StatusBadGateway
		}
	}
	parts := decodeReplies[ApproxQueryResponse](f, w, replies, reqID)
	if parts == nil {
		return http.StatusBadGateway
	}
	m := ApproxQueryResponse{Converged: true, Results: []graph.NodeID{}, Maybe: []graph.NodeID{}}
	for _, p := range parts {
		m.Query, m.K, m.Mode, m.Eps = p.Query, p.K, p.Mode, p.Eps
		m.Epoch = max(m.Epoch, p.Epoch)
		m.Rounds = max(m.Rounds, p.Rounds)
		m.PMPNIters = max(m.PMPNIters, p.PMPNIters)
		m.Converged = m.Converged && p.Converged
		m.Results = append(m.Results, p.Results...)
		m.Maybe = append(m.Maybe, p.Maybe...)
	}
	slices.Sort(m.Results)
	slices.Sort(m.Maybe)
	m.Count = len(m.Results)
	if len(m.Maybe) > 0 {
		m.EpsAchieved = float64(len(m.Maybe)) / float64(len(m.Results)+len(m.Maybe))
	}
	var body []byte
	if approx {
		body, _ = json.Marshal(m)
	} else {
		body, _ = json.Marshal(QueryResponse{Query: m.Query, K: m.K, Epoch: m.Epoch, Count: m.Count, Results: m.Results})
	}
	f.served.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Shards", strconv.Itoa(len(f.shards)))
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
	replies := f.broadcast(http.MethodGet, "/v1/stats", nil, reqID)
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
	replies := f.broadcast(http.MethodGet, "/healthz", nil, reqID)
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
	replies := f.broadcast(http.MethodPost, "/v1/edits", body, reqID)
	want := http.StatusAccepted
	if req.Wait {
		want = http.StatusOK
	}
	if status := f.relayFailure(w, replies, want, reqID); status != 0 {
		f.logRequest("fanout_edits", reqID, status, time.Since(begin), "edits", len(req.Edits))
		return
	}
	perShard := decodeReplies[EditsResponse](f, w, replies, reqID)
	if perShard == nil {
		f.logRequest("fanout_edits", reqID, http.StatusBadGateway, time.Since(begin), "edits", len(req.Edits))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(want)
	out, _ := json.Marshal(struct {
		Shards []EditsResponse `json:"shards"`
	}{perShard})
	w.Write(out)
	f.logRequest("fanout_edits", reqID, want, time.Since(begin), "edits", len(req.Edits))
}
