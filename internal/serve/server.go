package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/obs"
	"repro/internal/vecmath"
	"repro/internal/wal"
)

// Config parameterizes a Server. The zero value selects defaults.
type Config struct {
	// CacheBytes bounds the result cache by accounted payload bytes (value
	// length plus per-entry overhead), so large-k responses are charged
	// what they actually weigh; 0 selects the default, negative disables
	// caching and single-flight deduplication.
	CacheBytes int64
	// MaxInflight bounds concurrent engine computations (admission
	// control). Cache hits and coalesced waiters are not counted — they
	// cost no engine work. Excess computations are rejected with 503.
	// 0 selects 4×GOMAXPROCS.
	MaxInflight int
	// WorkerBudget is the total intra-query worker budget shared by
	// concurrent computations: each active computation runs with
	// budget/active workers (min 1), so a lone query spreads over all cores
	// while a saturated server runs one goroutine per query. 0 selects
	// GOMAXPROCS.
	WorkerBudget int
	// Logger, when set, receives one structured line per query request
	// (request id, mode, cache status, latency, phase counters). Nil
	// disables request logging; metrics and the slow log still record.
	Logger *slog.Logger
	// SlowLogCapacity bounds the slow-query ring. 0 selects
	// DefaultSlowLogCapacity; negative disables slow-query capture.
	SlowLogCapacity int
	// SlowLogThreshold is the duration at which a query enters the slow
	// log. 0 selects DefaultSlowLogThreshold; negative records every
	// query.
	SlowLogThreshold time.Duration
}

// DefaultCacheBytes is the result-cache byte budget when Config.CacheBytes
// is 0.
const DefaultCacheBytes = 8 << 20

var (
	errSaturated = errors.New("serve: too many in-flight queries")
	errBadEdits  = errors.New("serve: invalid edits")
	// ErrClosed is reported by edit batches still queued when the server
	// shuts down.
	ErrClosed = errors.New("serve: server closed")
)

// maxGrowthPerEdit bounds how many fresh node identifiers one edit may
// introduce: each edit names two endpoints, so a valid growing batch never
// needs more than 2·len(edits) new ids. Batches jumping further (e.g. one
// edit naming node 10⁹ on a 10⁴-node graph) are rejected cleanly instead
// of allocating the id range.
const maxGrowthPerEdit = 2

// Server is the HTTP serving layer: one snapshot store, one result cache,
// admission control, an asynchronous maintenance pipeline, and counters.
// Create with New, mount Handler, and Close when done (stops the
// maintenance goroutine).
type Server struct {
	store       *Store
	cache       *Cache
	budget      int
	maxInflight int64
	// active counts currently running engine computations (admitted work,
	// not raw connections).
	active   atomic.Int64
	draining atomic.Bool
	start    time.Time

	// Maintenance pipeline: POST /v1/edits enqueues a journaled batch and
	// returns a watermark; the single maintenance goroutine drains the
	// queue, patches each batch into a new CSR, refreshes only the
	// affected origins and hubs on an index clone, and publishes the new
	// epoch. Queries never wait on any of this.
	mu     sync.Mutex
	queue  []*editBatch  // guarded by mu
	closed bool          // guarded by mu
	wake   chan struct{} // cap-1 doorbell for the maintenance goroutine
	stop   chan struct{}
	done   chan struct{}

	enqueuedWM atomic.Uint64
	appliedWM  atomic.Uint64

	// Durability (nil/zero on a volatile server — see NewDurable): the
	// write-ahead journal every accepted batch is fsync'd to before its
	// watermark is acknowledged, and the checkpoint policy that bounds how
	// much of it a recovery must replay.
	journal     *wal.Log
	ckptDir     string
	ckptBytes   int64
	ckptBatches int
	lastCkptWM  atomic.Uint64
	lastCkptNS  atomic.Int64
	replayed    int
	replayDrop  int64

	// Observability: every monotone counter lives on the registry (the
	// /metrics source; /v1/stats reads the same instruments), the slow
	// log captures outlier queries, and logger emits one structured line
	// per request when configured.
	reg    *obs.Registry
	m      *metrics
	slow   *obs.SlowLog
	logger *slog.Logger

	// shardName is the ShardHeader value of a daemon serving a shard slice,
	// "" on a full index.
	shardName string

	lastRejectedWM atomic.Uint64
	lastMaintNS    atomic.Int64
	lastAffOrigins atomic.Int64
	lastAffHubs    atomic.Int64
	lastMaintError atomic.Pointer[string]

	// testComputeGate, when set by tests, runs inside every admitted
	// computation — used to hold computations open deterministically.
	testComputeGate func()
	// testMaintGate, when set by tests, runs at the start of every
	// maintenance batch — used to hold a maintenance pass open while
	// queries flow.
	testMaintGate func()
}

// editBatch is one journaled maintenance unit: an edit batch with its
// staleness threshold, the watermark it was enqueued at, and the outcome
// fields the maintenance goroutine fills before closing done.
type editBatch struct {
	edits     []evolve.Edit
	theta     float64
	watermark uint64
	done      chan struct{}

	stats evolve.Stats
	epoch uint64
	err   error
}

// Pending is the caller's handle on an enqueued edit batch.
type Pending struct {
	// Watermark identifies the batch in the maintenance journal; the
	// /v1/stats applied_watermark reaches it when the batch has been
	// applied (or rejected).
	Watermark uint64
	b         *editBatch
}

// Done returns a channel closed when the batch has been fully processed.
func (p *Pending) Done() <-chan struct{} { return p.b.done }

// Wait blocks until the batch is processed and returns its outcome: the
// refresh stats and published epoch, or the validation/internal error.
func (p *Pending) Wait() (evolve.Stats, uint64, error) {
	<-p.b.done
	return p.b.stats, p.b.epoch, p.b.err
}

// New creates a server over an initial (graph, index) pair, published at
// the epoch of the index's watermark (1 for a fresh index), and starts its
// maintenance goroutine. Callers must Close the server to stop it. The
// server is volatile: acknowledged edit batches live only in memory until
// applied — use NewDurable for a journaled one.
func New(g *graph.Graph, idx *lbindex.Index, cfg Config) (*Server, error) {
	s, err := newServer(g, idx, cfg)
	if err != nil {
		return nil, err
	}
	go s.maintLoop()
	return s, nil
}

// newServer builds a fully wired server WITHOUT starting its maintenance
// goroutine, so NewDurable can replay the journal synchronously first.
func newServer(g *graph.Graph, idx *lbindex.Index, cfg Config) (*Server, error) {
	store, err := NewStore(g, idx)
	if err != nil {
		return nil, err
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	cfg.WorkerBudget = vecmath.Workers(cfg.WorkerBudget)
	slowCap := cfg.SlowLogCapacity
	if slowCap == 0 {
		slowCap = DefaultSlowLogCapacity
	}
	slowThresh := cfg.SlowLogThreshold
	if slowThresh == 0 {
		slowThresh = DefaultSlowLogThreshold
	}
	reg := obs.NewRegistry()
	s := &Server{
		store:       store,
		cache:       NewCache(cfg.CacheBytes),
		budget:      cfg.WorkerBudget,
		maxInflight: int64(cfg.MaxInflight),
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		start:       time.Now(),
		reg:         reg,
		m:           newMetrics(reg),
		slow:        obs.NewSlowLog(slowCap, slowThresh),
		logger:      cfg.Logger,
	}
	store.AttachCache(s.cache)
	s.registerGauges(reg)
	if pm, shard, ok := idx.Shard(); ok {
		s.shardName = shardName(shard, pm.P())
	}
	// Index watermarks start where the loaded image left off; a freshly
	// built index is watermark 0. Enqueues continue from there.
	s.enqueuedWM.Store(idx.Watermark())
	s.appliedWM.Store(idx.Watermark())
	return s, nil
}

// Close stops accepting new batches, DRAINS every batch already
// acknowledged (their 202 watermarks were returned to callers — a graceful
// shutdown must honor them; only a hard crash may leave batches behind,
// and those are replayed from the journal), then stops the maintenance
// goroutine and closes the journal. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.mu.Unlock()
	<-s.done
	if s.journal != nil {
		// Close has no error return (it must be safe in defers), so a
		// failed final sync surfaces through the maintenance counters
		// like any other durability fault.
		if err := s.journal.Close(); err != nil {
			s.m.maintErrors.Inc()
			msg := fmt.Sprintf("journal close failed: %v", err)
			s.lastMaintError.Store(&msg)
		}
	}
}

// Store returns the server's snapshot store.
func (s *Server) Store() *Store { return s.store }

// Cache returns the server's result cache.
func (s *Server) Cache() *Cache { return s.cache }

// AppliedWatermark returns the journal watermark of the last fully
// processed edit batch.
func (s *Server) AppliedWatermark() uint64 { return s.appliedWM.Load() }

// StartDrain flips the server into draining mode: /healthz turns 503 so
// load balancers stop routing here, while in-flight and follow-up requests
// keep being served until the listener shuts down (http.Server.Shutdown).
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the daemon's route table:
//
//	GET  /v1/reverse-topk?q=<node>&k=<k>  — answer a query exactly
//	     (&mode=approx&eps=<ε>              — anytime approximate tier)
//	GET  /v1/stats                        — serving + maintenance counters
//	GET  /metrics                         — Prometheus text exposition
//	GET  /debug/slowlog                   — slow-query ring (?threshold= filters)
//	GET  /healthz                         — liveness (503 when draining)
//	POST /v1/edits                        — enqueue graph edits (202 + watermark; "wait":true blocks)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/reverse-topk", s.handleQuery)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /debug/slowlog", s.slow.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/edits", s.handleEdits)
	if s.shardName == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ShardHeader, s.shardName)
		mux.ServeHTTP(w, r)
	})
}

// ShardHeader names, on every response of a daemon serving a shard slice,
// the slice it serves: "i/P" for shard i of P. The fan-out coordinator
// refuses to merge a reply that names another shard than the one its URL
// was checked to serve at start.
const ShardHeader = "X-RTK-Shard"

// shardName is the ShardHeader value of shard i of p.
func shardName(i, p int) string { return strconv.Itoa(i) + "/" + strconv.Itoa(p) }

// QueryResponse is the JSON body of /v1/reverse-topk. Bodies are cached
// verbatim, so a cached response is byte-identical to the fresh one.
type QueryResponse struct {
	Query   graph.NodeID   `json:"query"`
	K       int            `json:"k"`
	Epoch   uint64         `json:"epoch"`
	Count   int            `json:"count"`
	Results []graph.NodeID `json:"results"`
}

// ApproxQueryResponse is the JSON body of /v1/reverse-topk?mode=approx: the
// two-part anytime answer. Results holds the guaranteed members (Count its
// size); Maybe the candidates still undecided at the achieved ε. EpsAchieved
// is at most Eps unless the run stopped first because its PMPN converged
// (Converged) or its screen was final — no open row could change side
// (core.Run.Rounds); Maybe is then exactly the exact query's refinement
// candidates, and the request's log line says which stop it was (pmpn_tail
// is 0 after convergence only). The answer is deterministic, and like exact
// bodies, approx bodies are cached verbatim under their own (mode,
// eps)-aware key, so a cached response is byte-identical to the fresh one.
type ApproxQueryResponse struct {
	Query       graph.NodeID   `json:"query"`
	K           int            `json:"k"`
	Mode        string         `json:"mode"`
	Eps         float64        `json:"eps"`
	EpsAchieved float64        `json:"eps_achieved"`
	Converged   bool           `json:"converged"`
	Rounds      int            `json:"rounds"`
	PMPNIters   int            `json:"pmpn_iters"`
	Epoch       uint64         `json:"epoch"`
	Count       int            `json:"count"`
	Results     []graph.NodeID `json:"results"`
	Maybe       []graph.NodeID `json:"maybe"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(body)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	id := ensureRequestID(w, r)
	params := r.URL.Query()
	qStr, kStr := params.Get("q"), params.Get("k")
	if qStr == "" || kStr == "" {
		s.httpError(w, "query", http.StatusBadRequest, "q and k query parameters are required")
		return
	}
	q, err := strconv.Atoi(qStr)
	if err != nil {
		s.httpError(w, "query", http.StatusBadRequest, "malformed q=%q: %v", qStr, err)
		return
	}
	k, err := strconv.Atoi(kStr)
	if err != nil {
		s.httpError(w, "query", http.StatusBadRequest, "malformed k=%q: %v", kStr, err)
		return
	}

	approx, eps, perr := ParseApproxParams(params.Get("mode"), params.Get("eps"), params.Get("delta"))
	if perr != nil {
		s.httpError(w, "query", perr.Status, "%s", perr.Error())
		return
	}
	mode := "exact"
	if approx {
		mode = ModeApprox
	}

	// One snapshot per request: every read below — validation bounds, the
	// cache key epoch, and the engine computation — uses this one pair, so
	// a concurrent snapshot swap cannot tear a response. Validation is the
	// same helper cmd/rtkquery uses, so CLI and HTTP reject identically.
	snap := s.store.Current()
	if perr := ValidateQueryParams(q, k, snap.View.N(), snap.View.MaxK()); perr != nil {
		s.httpError(w, "query", perr.Status, "%s", perr.Error())
		return
	}

	key := CacheKey{Q: graph.NodeID(q), K: k, Epoch: snap.Epoch}
	if approx {
		key.Mode, key.Eps = ModeApprox, eps
	}
	// The record is written only by the computation THIS request runs (a
	// hit or coalesced wait leaves it zero — that work was recorded by the
	// request that computed it), so no synchronization is needed.
	rec := &core.QueryStats{}
	body, status, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
		if approx {
			return s.computeApprox(snap, graph.NodeID(q), k, eps, rec)
		}
		return s.compute(snap, graph.NodeID(q), k, rec)
	})
	if err != nil {
		if errors.Is(err, errSaturated) {
			s.m.rejected.Inc()
			w.Header().Set("Retry-After", "1")
			s.httpError(w, "query", http.StatusServiceUnavailable, "server saturated: %d computations in flight", s.maxInflight)
			return
		}
		s.m.failures.Inc()
		s.httpError(w, "query", http.StatusInternalServerError, "query failed: %v", err)
		s.observeQuery(id, mode, q, k, snap.Epoch, status, http.StatusInternalServerError, time.Since(begin), rec)
		return
	}
	s.m.cacheRes.With(cacheLabel(status)).Inc()
	s.m.served.With(mode).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", status.String())
	w.Header().Set("X-Epoch", strconv.FormatUint(snap.Epoch, 10))
	s.writeBody(w, "query", body)
	s.observeQuery(id, mode, q, k, snap.Epoch, status, http.StatusOK, time.Since(begin), rec)
}

// cacheLabel maps a cache status onto its metric label.
func cacheLabel(st CacheStatus) string {
	switch st {
	case StatusHit:
		return "hit"
	case StatusCoalesced:
		return "coalesced"
	case StatusBypass:
		return "bypass"
	default:
		return "miss"
	}
}

// admit takes an admission slot for one computation, or refuses it with
// errSaturated when MaxInflight are already running, and deals the admitted
// computation its share of the worker budget: a lone query gets all of it, a
// busy server runs sequential engines. An admitted caller releases its slot
// with s.active.Add(-1) when done. Admission happens after the cache, so
// cache hits and coalesced waiters are never rejected, only work that would
// actually occupy an engine.
func (s *Server) admit() (workers int, err error) {
	if s.active.Add(1) > s.maxInflight {
		s.active.Add(-1)
		return 0, errSaturated
	}
	if gate := s.testComputeGate; gate != nil {
		gate()
	}
	return max(s.budget/int(max(s.active.Load(), 1)), 1), nil
}

// compute runs one admitted exact computation against a pinned snapshot and
// serializes the response body. The query runs at once on the request's own
// goroutine with its dealt share of the worker budget.
func (s *Server) compute(snap *Snapshot, q graph.NodeID, k int, rec *core.QueryStats) ([]byte, error) {
	workers, err := s.admit()
	if err != nil {
		return nil, err
	}
	defer s.active.Add(-1)
	results, stats, err := snap.View.Query(q, k, workers)
	*rec = stats
	if err != nil {
		return nil, err
	}
	if results == nil {
		results = []graph.NodeID{}
	}
	s.m.computed.With("exact").Inc()
	return json.Marshal(QueryResponse{
		Query:   q,
		K:       k,
		Epoch:   snap.Epoch,
		Count:   len(results),
		Results: results,
	})
}

// computeApprox is the anytime tier's computation: admission-controlled
// exactly like compute (the slot counts against the same MaxInflight and
// the worker budget is dealt the same way). The answer is deterministic, so
// recomputing a dropped cache entry reproduces the evicted body bytes.
func (s *Server) computeApprox(snap *Snapshot, q graph.NodeID, k int, eps float64, rec *core.QueryStats) ([]byte, error) {
	workers, err := s.admit()
	if err != nil {
		return nil, err
	}
	defer s.active.Add(-1)
	res, err := snap.View.QueryAnytime(q, k, core.AnytimeOptions{Eps: eps}, workers)
	if err != nil {
		return nil, err
	}
	guaranteed, maybe := res.Guaranteed, res.Maybe
	if guaranteed == nil {
		guaranteed = []graph.NodeID{}
	}
	if maybe == nil {
		maybe = []graph.NodeID{}
	}
	s.m.computed.With(ModeApprox).Inc()
	s.m.approxRounds.Add(uint64(res.Stats.Rounds))
	*rec = core.QueryStats{RunStats: res.Stats.RunStats}
	return json.Marshal(ApproxQueryResponse{
		Query:       q,
		K:           k,
		Mode:        ModeApprox,
		Eps:         eps,
		EpsAchieved: res.Stats.EpsAchieved,
		Converged:   res.Stats.Converged,
		Rounds:      res.Stats.Rounds,
		PMPNIters:   res.Stats.PMPNIters,
		Epoch:       snap.Epoch,
		Count:       len(guaranteed),
		Results:     guaranteed,
		Maybe:       maybe,
	})
}

// StatsResponse is the JSON body of /v1/stats.
type StatsResponse struct {
	Epoch         uint64  `json:"epoch"`
	Nodes         int     `json:"nodes"`
	MaxK          int     `json:"max_k"`
	Served        int64   `json:"served"`
	Computed      int64   `json:"computed"`
	CacheHits     int64   `json:"cache_hits"`
	Coalesced     int64   `json:"coalesced"`
	Rejected      int64   `json:"rejected"`
	Errors        int64   `json:"errors"`
	EpochSwaps    int64   `json:"epoch_swaps"`
	CacheLen      int     `json:"cache_len"`
	CacheBytes    int64   `json:"cache_bytes"`
	CacheCapBytes int64   `json:"cache_cap_bytes"`
	Inflight      int64   `json:"inflight"`
	WorkerBudget  int     `json:"worker_budget"`
	Draining      bool    `json:"draining"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Anytime tier: mode=approx computations actually run (cache hits and
	// coalesced waiters excluded) and the screen rounds they took.
	ApproxComputed int64 `json:"approx_computed"`
	ApproxRounds   int64 `json:"approx_rounds"`

	// GraphSHA256 is the hex SHA-256 of the served graph's out-lists and
	// weights (Snapshot.GraphSHA256): a coordinator refuses shards that
	// report different ones.
	GraphSHA256 string `json:"graph_sha256"`

	// Shard-slice identity (set when the daemon serves one shard of a
	// partitioned index; absent on a full index).
	ShardID         *int    `json:"shard_id,omitempty"`
	ShardCount      int     `json:"shard_count,omitempty"`
	OwnedRows       int     `json:"owned_nodes,omitempty"`
	PartitionBounds []int32 `json:"partition_bounds,omitempty"`

	// Maintenance pipeline observability.
	EnqueuedWatermark   uint64 `json:"enqueued_watermark"`
	AppliedWatermark    uint64 `json:"applied_watermark"`
	PendingEdits        uint64 `json:"pending_edits"`
	MaintErrors         int64  `json:"maint_errors"`
	LastRejectedWM      uint64 `json:"last_rejected_watermark,omitempty"`
	LastMaintMS         int64  `json:"last_maint_ms"`
	LastAffectedOrigins int64  `json:"last_affected_origins"`
	LastAffectedHubs    int64  `json:"last_affected_hubs"`
	LastMaintError      string `json:"last_maint_error,omitempty"`
	NodesGrown          int64  `json:"nodes_grown"`

	// Durability (set only when the server runs a write-ahead journal).
	Durable                 bool   `json:"durable,omitempty"`
	JournalBytes            int64  `json:"journal_bytes,omitempty"`
	JournalBatches          int    `json:"journal_batches,omitempty"`
	Checkpoints             int64  `json:"checkpoints,omitempty"`
	LastCheckpointWatermark uint64 `json:"last_checkpoint_watermark,omitempty"`
	ReplayedBatches         int    `json:"replayed_batches,omitempty"`
	RecoveryDroppedBytes    int64  `json:"recovery_dropped_bytes,omitempty"`

	// ResponseWriteDrops counts response bodies the client connection
	// refused to accept (w.Write failed after the status was committed).
	ResponseWriteDrops int64 `json:"response_write_drops,omitempty"`
}

// Stats snapshots the serving counters.
func (s *Server) Stats() StatsResponse {
	snap := s.store.Current()
	// applied is loaded FIRST: a batch enqueued+applied between the two
	// loads then only inflates enq, keeping the unsigned pending count
	// from underflowing.
	app := s.appliedWM.Load()
	enq := s.enqueuedWM.Load()
	if enq < app {
		enq = app
	}
	resp := StatsResponse{
		Epoch:         snap.Epoch,
		Nodes:         snap.View.N(),
		GraphSHA256:   snap.GraphSHA256(),
		MaxK:          snap.View.MaxK(),
		Served:        int64(s.m.served.Total()),
		Computed:      int64(s.m.computed.With("exact").Value()),
		CacheHits:     int64(s.m.cacheRes.With("hit").Value()),
		Coalesced:     int64(s.m.cacheRes.With("coalesced").Value()),
		Rejected:      int64(s.m.rejected.Value()),
		Errors:        int64(s.m.failures.Value()),
		EpochSwaps:    int64(s.m.epochSwaps.Value()),
		CacheLen:      s.cache.Len(),
		CacheBytes:    s.cache.Bytes(),
		CacheCapBytes: s.cache.Cap(),
		Inflight:      s.active.Load(),
		WorkerBudget:  s.budget,
		Draining:      s.draining.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),

		ApproxComputed: int64(s.m.computed.With(ModeApprox).Value()),
		ApproxRounds:   int64(s.m.approxRounds.Value()),

		EnqueuedWatermark:   enq,
		AppliedWatermark:    app,
		PendingEdits:        enq - app,
		MaintErrors:         int64(s.m.maintErrors.Value()),
		LastRejectedWM:      s.lastRejectedWM.Load(),
		LastMaintMS:         s.lastMaintNS.Load() / 1e6,
		LastAffectedOrigins: s.lastAffOrigins.Load(),
		LastAffectedHubs:    s.lastAffHubs.Load(),
		NodesGrown:          int64(s.m.nodesGrown.Value()),
	}
	if msg := s.lastMaintError.Load(); msg != nil {
		resp.LastMaintError = *msg
	}
	resp.ResponseWriteDrops = int64(s.m.writeDrops.Total())
	if s.journal != nil {
		resp.Durable = true
		resp.JournalBytes = s.journal.Size()
		resp.JournalBatches = s.journal.Batches()
		resp.Checkpoints = int64(s.m.checkpoints.Value())
		resp.LastCheckpointWatermark = s.lastCkptWM.Load()
		resp.ReplayedBatches = s.replayed
		resp.RecoveryDroppedBytes = s.replayDrop
	}
	if pm, shard, ok := snap.View.Index().Shard(); ok {
		lo, hi := snap.View.Index().Rows()
		resp.ShardID = &shard
		resp.ShardCount = pm.P()
		resp.OwnedRows = hi - lo
		_, _, resp.PartitionBounds = pm.Parts()
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(s.Stats())
	s.writeBody(w, "stats", body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

// EditJSON is the wire form of one evolve.Edit.
type EditJSON struct {
	From   graph.NodeID `json:"from"`
	To     graph.NodeID `json:"to"`
	Weight float64      `json:"weight,omitempty"`
	Remove bool         `json:"remove,omitempty"`
}

// EditsRequest is the JSON body of POST /v1/edits.
type EditsRequest struct {
	Edits []EditJSON `json:"edits"`
	// Theta is the evolve staleness threshold; 0 refreshes every origin
	// that reaches an edited source (equivalent to a full rebuild).
	Theta float64 `json:"theta"`
	// Wait makes the request block until the batch is applied (or
	// rejected), restoring synchronous semantics: 200 with the full
	// EditsResponse, 400/500 on failure. Without it the request returns
	// 202 immediately with the journal watermark; poll /v1/stats until
	// applied_watermark reaches it to observe completion. A 202-accepted
	// batch can still FAIL validation when applied: the watermark advances
	// (it was processed), and the rejection is reported via maint_errors,
	// last_rejected_watermark and last_maint_error. Clients that need the
	// outcome per batch should use Wait.
	Wait bool `json:"wait,omitempty"`
}

// batch is the request's edits as the maintenance pipeline takes them.
func (r *EditsRequest) batch() []evolve.Edit {
	edits := make([]evolve.Edit, len(r.Edits))
	for i, e := range r.Edits {
		edits[i] = evolve.Edit{From: e.From, To: e.To, Weight: e.Weight, Remove: e.Remove}
	}
	return edits
}

// EditsResponse reports a completed maintenance pass (Wait=true), or the
// journal position of an accepted batch (202: only Watermark is set).
type EditsResponse struct {
	Watermark   uint64 `json:"watermark"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Affected    int    `json:"affected,omitempty"`
	HubsRebuilt int    `json:"hubs_rebuilt,omitempty"`
	ElapsedMS   int64  `json:"elapsed_ms,omitempty"`
}

// maxEditsBody caps the POST /v1/edits request body: edits are ~tens of
// bytes each, so even a graph-wide batch fits comfortably, and an unbounded
// decode would let one client grow the heap arbitrarily.
const maxEditsBody = 8 << 20

func (s *Server) handleEdits(w http.ResponseWriter, r *http.Request) {
	id := ensureRequestID(w, r)
	var req EditsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEditsBody)).Decode(&req); err != nil {
		s.httpError(w, "edits", http.StatusBadRequest, "malformed edits body: %v", err)
		return
	}
	edits := req.batch()
	pending, err := s.EnqueueEdits(edits, req.Theta)
	if err != nil {
		status := http.StatusBadRequest
		if !errors.Is(err, errBadEdits) {
			status = http.StatusServiceUnavailable
		}
		s.httpError(w, "edits", status, "%v", err)
		return
	}
	if s.logger != nil {
		s.logger.Info("edits", "request_id", id, "watermark", pending.Watermark, "edits", len(edits), "wait", req.Wait)
	}
	if !req.Wait {
		body, _ := json.Marshal(EditsResponse{Watermark: pending.Watermark})
		s.writeJSON(w, "edits", http.StatusAccepted, body)
		return
	}
	stats, epoch, err := pending.Wait()
	if err != nil {
		// Edit validation errors (unknown edge, duplicate insert, growth
		// beyond the per-batch bound) are the caller's fault; anything
		// else is internal.
		status := http.StatusBadRequest
		if !errors.Is(err, errBadEdits) {
			status = http.StatusInternalServerError
		}
		s.httpError(w, "edits", status, "%v", err)
		return
	}
	body, _ := json.Marshal(EditsResponse{
		Watermark:   pending.Watermark,
		Epoch:       epoch,
		Affected:    stats.Affected,
		HubsRebuilt: stats.HubsRebuilt,
		ElapsedMS:   stats.Elapsed.Milliseconds(),
	})
	s.writeJSON(w, "edits", http.StatusOK, body)
}

// writeJSON commits status and body with the JSON content type. A failed
// body write cannot be retracted (the status line is already on the wire),
// but it is counted — a silently dropped 202 body would hide the watermark
// the client needs to track its batch.
func (s *Server) writeJSON(w http.ResponseWriter, handler string, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.m.writeDrops.With(handler).Inc()
	}
}

// EnqueueEdits appends an edit batch to the maintenance journal and
// returns immediately with its watermark handle. The single maintenance
// goroutine applies batches in watermark order; queries keep flowing
// against the current snapshot throughout.
//
// On a durable server the batch is framed, checksummed and fsync'd to the
// write-ahead journal BEFORE the watermark is assigned and returned: an
// acknowledgement therefore promises the batch survives process death and
// is replayed on restart. A batch the journal cannot persist is never
// acknowledged.
func (s *Server) EnqueueEdits(edits []evolve.Edit, theta float64) (*Pending, error) {
	if err := ValidateEdits(edits, theta); err != nil {
		return nil, err
	}
	b := &editBatch{edits: edits, theta: theta, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	wm := s.enqueuedWM.Load() + 1
	if s.journal != nil {
		if err := s.journal.Append(wal.Record{Watermark: wm, Theta: theta, Edits: edits}); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("serve: journaling edit batch: %w", err)
		}
	}
	b.watermark = wm
	s.enqueuedWM.Store(wm)
	s.queue = append(s.queue, b)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return &Pending{Watermark: b.watermark, b: b}, nil
}

// ApplyEdits runs one maintenance pass synchronously: it enqueues the
// batch and blocks until the maintenance goroutine has applied it and
// published the new epoch (or rejected it). Kept for callers that want
// edit-then-read semantics; the HTTP path is asynchronous by default.
func (s *Server) ApplyEdits(edits []evolve.Edit, theta float64) (evolve.Stats, uint64, error) {
	pending, err := s.EnqueueEdits(edits, theta)
	if err != nil {
		return evolve.Stats{}, 0, err
	}
	return pending.Wait()
}

// maintLoop is the single maintenance goroutine: it drains the journal in
// watermark order and runs each batch through the incremental pipeline.
// When Close is called it finishes every batch still queued — each was
// acknowledged with a watermark, so a graceful shutdown applies them all —
// and only then exits.
func (s *Server) maintLoop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
			select {
			case <-s.wake:
			case <-s.stop:
			}
			s.mu.Lock()
		}
		b := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()

		s.finishBatch(b)
		s.maybeCheckpoint()
	}
}

// finishBatch runs one batch and publishes its completion: the watermark
// stamp happens BEFORE the watermark is visible as applied, so once it is,
// every side effect the batch scheduled has settled. The
// stamp lands on the current snapshot's index whether the batch succeeded
// (the freshly published clone) or was rejected (the prior index — a
// rejection still consumes its watermark, and a replay re-rejects it
// deterministically), keeping saved images' embedded watermarks honest.
func (s *Server) finishBatch(b *editBatch) {
	s.runBatch(b)
	s.store.Current().View.Index().SetWatermark(b.watermark)
	s.appliedWM.Store(b.watermark)
	close(b.done)
}

// runBatch executes one journaled batch end to end: the CSR patch
// (graph.Graph.Apply), affected-set computation (one backward push per edited source), partial
// refresh of an index clone (affected origins + affected hubs only, new
// origins included), and the epoch publish. Readers keep serving the old
// snapshot until the final pointer swap.
func (s *Server) runBatch(b *editBatch) {
	start := time.Now()
	fail := func(err error) {
		b.err = err
		s.m.maintErrors.Inc()
		s.lastRejectedWM.Store(b.watermark)
		msg := err.Error()
		s.lastMaintError.Store(&msg)
		elapsed := time.Since(start)
		s.lastMaintNS.Store(int64(elapsed))
		s.m.maintDur.Observe(elapsed.Seconds())
	}
	if gate := s.testMaintGate; gate != nil {
		gate()
	}
	snap := s.store.Current()
	cur := snap.View.Graph()
	edits := b.edits

	// Bound node growth before applying: one edit introduces at most two
	// fresh identifiers, so anything larger is a fat-finger (or hostile)
	// id jump that would allocate the whole range. Mirror Apply's
	// netting — an insert cancelled by a later remove of the same edge
	// never grows the graph.
	maxID := graph.NodeID(-1)
	live := make(map[[2]graph.NodeID]bool, len(edits))
	for _, e := range edits {
		if e.Remove {
			delete(live, [2]graph.NodeID{e.From, e.To})
			continue
		}
		live[[2]graph.NodeID{e.From, e.To}] = true
	}
	for k := range live {
		if k[0] > maxID {
			maxID = k[0]
		}
		if k[1] > maxID {
			maxID = k[1]
		}
	}
	if growth := int(maxID) + 1 - cur.N(); growth > maxGrowthPerEdit*len(edits) {
		fail(fmt.Errorf("%w: edits grow the graph by %d nodes (max %d for %d edits); add nodes in contiguous batches",
			errBadEdits, growth, maxGrowthPerEdit*len(edits), len(edits)))
		return
	}

	next, err := cur.Apply(edits)
	if err != nil {
		fail(fmt.Errorf("%w: %v", errBadEdits, err))
		return
	}

	idx := snap.View.Index()
	opts := idx.Options()
	affected, err := evolve.AffectedNodes(next, evolve.Sources(edits), b.theta, opts.RWR)
	if err != nil {
		fail(err)
		return
	}
	hm := idx.HubMatrix()
	// Grown graphs: pad the index (which also extends a shard slice's
	// partition map, and with it the last shard's range) before routing
	// refresh work, so the ownership test below covers the fresh ids too.
	var nextIdx *lbindex.Index
	if next.N() > idx.N() {
		nextIdx = idx.CloneGrown(next.N())
		s.m.nodesGrown.Add(uint64(next.N() - idx.N()))
	} else {
		nextIdx = idx.Clone()
	}
	// Route refresh work to the owning shard: on a shard-slice snapshot
	// only rows this shard materializes are re-indexed (the other shards
	// receive the same broadcast batch and refresh their own), while
	// affected HUBS refresh everywhere — the hub matrix is replicated.
	var origins, hubs []graph.NodeID
	for u, a := range affected {
		if !a {
			continue
		}
		id := graph.NodeID(u)
		if hm.IsHub(id) {
			hubs = append(hubs, id)
		} else if nextIdx.Owns(id) {
			origins = append(origins, id)
		}
	}
	// New origins are indexed whether or not they reach an edited source
	// (they have no entry at all yet) — again only the owned ones.
	for u := idx.N(); u < next.N(); u++ {
		if !affected[u] && nextIdx.Owns(graph.NodeID(u)) {
			origins = append(origins, graph.NodeID(u))
		}
	}
	// The refresh attaches next to nextIdx, so the published pair is one
	// graph by pointer and a checkpoint of nextIdx stores next.
	stats, err := evolve.RefreshPartial(next, nextIdx, origins, hubs)
	if err != nil {
		fail(err)
		return
	}
	// The batch's watermark is the published snapshot's epoch, less one.
	nextIdx.SetWatermark(b.watermark)
	published, err := s.store.Publish(next, nextIdx)
	if err != nil {
		fail(err)
		return
	}
	// Publish already dropped every other epoch from the cache — eager
	// invalidation is the store's job, so it holds for ALL publishers.
	s.m.epochSwaps.Inc()

	b.stats = stats
	b.epoch = published.Epoch
	s.lastAffOrigins.Store(int64(len(origins)))
	s.lastAffHubs.Store(int64(len(hubs)))
	elapsed := time.Since(start)
	s.lastMaintNS.Store(int64(elapsed))
	s.m.maintDur.Observe(elapsed.Seconds())
}
