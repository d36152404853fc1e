package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the serving layer's observability wiring: the metric
// catalog every Server registers, the per-request trace the compute paths
// fill, and the request-ID plumbing that correlates one query across the
// fan-out topology. The /v1/stats JSON keeps its exact shape — it is now a
// view over the registry — while /metrics exposes the same state (plus
// histograms the JSON never carried) in Prometheus text format.

// RequestIDHeader carries a query's correlation ID across the serving
// topology: the fan-out coordinator stamps it on every proxied shard call,
// shard daemons echo it, and each hop's structured log line repeats it.
const RequestIDHeader = "X-RTK-Request-ID"

// ensureRequestID returns the request's correlation ID — propagated from
// the incoming header when a coordinator already stamped one, freshly
// minted otherwise — and echoes it on the response.
func ensureRequestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// DefaultSlowLogCapacity is the slow-query ring size when
// Config.SlowLogCapacity is 0.
const DefaultSlowLogCapacity = 256

// DefaultSlowLogThreshold is the slow-query recording threshold when
// Config.SlowLogThreshold is 0.
const DefaultSlowLogThreshold = 250 * time.Millisecond

// phaseBuckets resolve the query phase histograms: phases run from
// sub-millisecond screens to multi-second SpMM slabs.
var phaseBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// fallbackIterBuckets resolve rtk_fallback_iterations: a fallback that runs
// to convergence takes at most about as many iterations as the PMPN (≈140
// at the default α and ε; ≈44 on the benchmark's web fixture), one the
// error band stops early a fraction of that.
var fallbackIterBuckets = []float64{5, 10, 20, 30, 40, 50, 60, 80, 100, 120, 140, 160, 200, 300, 500, 1000}

// metrics is the Server's instrument set, all registered on one Registry.
type metrics struct {
	served   *obs.CounterVec // rtk_queries_served_total{mode}
	computed *obs.CounterVec // rtk_queries_computed_total{mode}
	cacheRes *obs.CounterVec // rtk_query_cache_total{status}
	rejected *obs.Counter
	failures *obs.Counter

	epochSwaps   *obs.Counter
	approxRounds *obs.Counter

	maintErrors *obs.Counter
	compactions *obs.Counter
	nodesGrown  *obs.Counter
	checkpoints *obs.Counter

	writeDrops *obs.CounterVec // rtk_http_write_drops_total{handler}
	httpErrors *obs.CounterVec // rtk_http_errors_total{handler,status}

	queryDur *obs.HistogramVec // rtk_query_duration_seconds{mode}
	phaseDur *obs.HistogramVec // rtk_query_phase_seconds{phase}
	fbIters  *obs.Histogram    // rtk_fallback_iterations
	fbEarly  *obs.Counter      // rtk_fallback_early_stops_total
	maintDur *obs.Histogram
	walDur   *obs.Histogram
	walBytes *obs.Counter
	ckptDur  *obs.Histogram
}

// newMetrics registers the counter and histogram families. Gauge families
// close over live server state and are registered separately once the
// Server struct exists (registerGauges).
func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		served:   reg.NewCounterVec("rtk_queries_served_total", "Queries answered, by mode.", "mode"),
		computed: reg.NewCounterVec("rtk_queries_computed_total", "Queries that ran an engine computation (cache hits and coalesced waiters excluded), by mode.", "mode"),
		cacheRes: reg.NewCounterVec("rtk_query_cache_total", "Result cache outcomes per query.", "status"),
		rejected: reg.NewCounter("rtk_queries_rejected_total", "Queries rejected by admission control (503)."),
		failures: reg.NewCounter("rtk_query_failures_total", "Queries that failed inside the engine (500)."),

		epochSwaps:   reg.NewCounter("rtk_epoch_swaps_total", "Snapshot publishes (maintenance epoch bumps)."),
		approxRounds: reg.NewCounter("rtk_approx_rounds_total", "Anytime screen rounds across approx computations."),

		maintErrors: reg.NewCounter("rtk_maint_errors_total", "Maintenance pipeline failures (rejected batches, compaction and checkpoint errors)."),
		compactions: reg.NewCounter("rtk_compactions_total", "Overlay compactions folded back into a fresh CSR."),
		nodesGrown:  reg.NewCounter("rtk_nodes_grown_total", "Nodes added to the graph by edit batches."),
		checkpoints: reg.NewCounter("rtk_checkpoints_total", "Committed checkpoints."),

		writeDrops: reg.NewCounterVec("rtk_http_write_drops_total", "Response bodies the client connection refused after the status was committed.", "handler"),
		httpErrors: reg.NewCounterVec("rtk_http_errors_total", "Error responses, by handler and status code.", "handler", "status"),

		queryDur: reg.NewHistogramVec("rtk_query_duration_seconds", "End-to-end query latency, by mode.", nil, "mode"),
		phaseDur: reg.NewHistogramVec("rtk_query_phase_seconds", "Per-query phase wall clock: pmpn, decide, fallback.", phaseBuckets, "phase"),
		fbIters:  reg.NewHistogram("rtk_fallback_iterations", "Forward power-method iterations per exact fallback (mean over one computed query's fallbacks).", fallbackIterBuckets),
		fbEarly:  reg.NewCounter("rtk_fallback_early_stops_total", "Exact fallbacks decided before their forward iteration converged."),
		maintDur: reg.NewHistogram("rtk_maint_duration_seconds", "Maintenance batch wall clock (apply + refresh + publish).", nil),
		walDur:   reg.NewHistogram("rtk_wal_append_seconds", "WAL record write+fsync wall clock.", phaseBuckets),
		walBytes: reg.NewCounter("rtk_wal_appended_bytes_total", "Bytes appended to the write-ahead journal."),
		ckptDur:  reg.NewHistogram("rtk_checkpoint_duration_seconds", "Checkpoint wall clock (compact + save + commit + truncate).", nil),
	}
}

// registerGauges registers the families that read live server state. They
// run on the scrape goroutine: everything they touch is an atomic, a
// self-locking accessor, or an immutable field. s.journal is set before
// the handler is ever mounted and never reassigned, so the nil check is
// race-free.
func (s *Server) registerGauges(reg *obs.Registry) {
	reg.NewGaugeFunc("rtk_epoch", "Currently served snapshot epoch.", func() float64 {
		return float64(s.store.Current().Epoch)
	})
	reg.NewGaugeFunc("rtk_nodes", "Nodes in the served graph.", func() float64 {
		return float64(s.store.Current().View.N())
	})
	reg.NewGaugeFunc("rtk_inflight", "Engine computations currently running.", func() float64 {
		return float64(s.active.Load())
	})
	reg.NewGaugeFunc("rtk_worker_budget", "Intra-query worker budget shared by concurrent computations.", func() float64 {
		return float64(s.budget)
	})
	reg.NewGaugeFunc("rtk_draining", "1 while the server is draining, else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.NewGaugeFunc("rtk_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	reg.NewGaugeFunc("rtk_cache_bytes", "Accounted bytes of completed cache entries.", func() float64 {
		return float64(s.cache.Bytes())
	})
	reg.NewGaugeFunc("rtk_cache_entries", "Completed cache entries.", func() float64 {
		return float64(s.cache.Len())
	})
	reg.NewGaugeFunc("rtk_cache_cap_bytes", "Configured cache byte budget.", func() float64 {
		return float64(s.cache.Cap())
	})
	reg.NewCounterFuncs("rtk_cache_evictions_total", "Cache entries removed or refused, by cause.", "cause",
		map[string]func() float64{
			"capacity": func() float64 { return float64(s.cache.evictedCapacity.Load()) },
			"epoch":    func() float64 { return float64(s.cache.droppedEpoch.Load()) },
			"oversize": func() float64 { return float64(s.cache.skippedOversize.Load()) },
		})
	reg.NewGaugeFunc("rtk_maint_queue_depth", "Edit batches acknowledged but not yet applied (queue length).", func() float64 {
		s.mu.Lock()
		depth := len(s.queue)
		s.mu.Unlock()
		return float64(depth)
	})
	reg.NewGaugeFunc("rtk_enqueued_watermark", "Watermark of the newest acknowledged edit batch.", func() float64 {
		return float64(s.enqueuedWM.Load())
	})
	reg.NewGaugeFunc("rtk_applied_watermark", "Watermark of the newest fully applied edit batch.", func() float64 {
		return float64(s.appliedWM.Load())
	})
	reg.NewGaugeFunc("rtk_overlay_delta_edges", "Patched adjacency entries in the newest overlay (compaction trigger input).", func() float64 {
		return float64(s.overlay.Load().DeltaEdges())
	})
	reg.NewGaugeFunc("rtk_journal_bytes", "Write-ahead journal size (0 on a volatile server).", func() float64 {
		if s.journal == nil {
			return 0
		}
		return float64(s.journal.Size())
	})
	reg.NewGaugeFunc("rtk_journal_batches", "Records in the write-ahead journal (0 on a volatile server).", func() float64 {
		if s.journal == nil {
			return 0
		}
		return float64(s.journal.Batches())
	})
	reg.NewGaugeFunc("rtk_checkpoint_watermark", "Watermark of the last committed checkpoint.", func() float64 {
		return float64(s.lastCkptWM.Load())
	})
	reg.NewGaugeFunc("rtk_checkpoint_age_seconds", "Seconds since the last committed checkpoint (0 before the first).", func() float64 {
		ns := s.lastCkptNS.Load()
		if ns == 0 {
			return 0
		}
		return time.Since(time.Unix(0, ns)).Seconds()
	})
	reg.NewGaugeFunc("rtk_replayed_batches", "Journal records replayed at startup.", func() float64 {
		return float64(s.replayed)
	})
}

// queryTrace is one request's phase record, filled by the computation that
// actually ran (empty for cache hits and coalesced waiters — their work
// happened under another request's trace).
type queryTrace struct {
	computed  bool
	phases    map[string]time.Duration
	pmpnIters int
	// pmpnSupport is the non-zero count of an exact computation's proximity
	// vector (core.QueryStats.PMPNSupport); 0 for an approx one, whose
	// iterate is cut short.
	pmpnSupport int
	// screened is the number of rows the exact decision sweep visited
	// (core.QueryStats.Screened): next to pmpnSupport it tells a sparse
	// screen over a closed backward ball from a dense one over every row.
	screened int
	rounds   int
	// candidates is how many rows passed an exact computation's screen and
	// refineSteps the BCA steps spent on them (core.QueryStats); beside
	// fallbacks they say whether a slow query refined or solved.
	candidates, refineSteps int
	// Exact fallbacks of the computation: how many, their forward
	// iterations in total, how many of those swept only the forward ball
	// (core.QueryStats.FallbackBallIters), and how many fallbacks stopped
	// before convergence.
	fallbacks, fallbackIters, fallbackBallIters, fallbackEarlyStops int
}

// setExact installs the record of an exact computation.
func (t *queryTrace) setExact(st core.QueryStats) {
	t.computed = true
	t.pmpnIters, t.pmpnSupport, t.screened = st.PMPNIters, st.PMPNSupport, st.Screened
	t.setPhases(st.Phases())
	t.candidates, t.refineSteps = st.Candidates, st.RefineSteps
	t.fallbacks, t.fallbackIters, t.fallbackEarlyStops = st.ExactFallbacks, st.FallbackIters, st.FallbackEarlyStops
	t.fallbackBallIters = st.FallbackBallIters
}

// setPhases installs a non-empty phase map.
func (t *queryTrace) setPhases(p map[string]time.Duration) {
	if len(p) > 0 {
		t.phases = p
	}
}

// observeQuery records one answered query's latency, phases, fallback
// record, structured log line and slow-log entry. code is the HTTP status
// actually sent.
func (s *Server) observeQuery(id, mode string, q, k int, epoch uint64, cacheStatus CacheStatus, code int, elapsed time.Duration, tr *queryTrace) {
	s.m.queryDur.With(mode).Observe(elapsed.Seconds())
	phasesMS := make(map[string]float64, len(tr.phases))
	for name, d := range tr.phases {
		s.m.phaseDur.With(name).Observe(d.Seconds())
		phasesMS[name] = float64(d) / float64(time.Millisecond)
	}
	if tr.fallbacks > 0 {
		s.m.fbIters.Observe(float64(tr.fallbackIters) / float64(tr.fallbacks))
		s.m.fbEarly.Add(uint64(tr.fallbackEarlyStops))
	}
	if s.logger != nil {
		s.logger.Info("query",
			"request_id", id,
			"mode", mode,
			"q", q,
			"k", k,
			"epoch", epoch,
			"cache", cacheStatus.String(),
			"status", code,
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"pmpn_iters", tr.pmpnIters,
			"pmpn_support", tr.pmpnSupport,
			"screened", tr.screened,
			"rounds", tr.rounds,
			"candidates", tr.candidates,
			"refine_steps", tr.refineSteps,
			"fallbacks", tr.fallbacks,
			"fallback_iters", tr.fallbackIters,
			"fallback_ball_iters", tr.fallbackBallIters,
			"fallback_early_stops", tr.fallbackEarlyStops,
		)
	}
	if len(phasesMS) == 0 {
		phasesMS = nil
	}
	s.slow.Record(obs.SlowEntry{
		Time:      time.Now(),
		RequestID: id,
		Route:     "reverse-topk",
		Detail: fmt.Sprintf("q=%d k=%d mode=%s cache=%s pmpn_iters=%d pmpn_support=%d screened=%d candidates=%d refine_steps=%d fallbacks=%d fallback_iters=%d fallback_ball_iters=%d fallback_early_stops=%d",
			q, k, mode, cacheStatus, tr.pmpnIters, tr.pmpnSupport, tr.screened, tr.candidates, tr.refineSteps, tr.fallbacks, tr.fallbackIters, tr.fallbackBallIters, tr.fallbackEarlyStops),
		PhasesMS: phasesMS,
		Duration: elapsed,
	})
}

// httpError writes an error response through the unified error account:
// one counter family, labeled by handler and status, covers every
// non-success response the daemon produces.
func (s *Server) httpError(w http.ResponseWriter, handler string, status int, format string, args ...any) {
	s.m.httpErrors.With(handler, strconv.Itoa(status)).Inc()
	writeError(w, status, format, args...)
}

// writeBody writes an already-committed 200 body, counting a client
// connection that refuses it.
func (s *Server) writeBody(w http.ResponseWriter, handler string, body []byte) {
	if _, err := w.Write(body); err != nil {
		s.m.writeDrops.With(handler).Inc()
	}
}

// Registry returns the server's metric registry (the /metrics source).
func (s *Server) Registry() *obs.Registry { return s.reg }

// SlowLog returns the server's slow-query ring.
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }
