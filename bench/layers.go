package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/partition"
	"repro/internal/rwr"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
)

// layerMetrics is the layer table: every name a traced run prints, in
// order, named <package>.<metric>. README.md says which end-to-end metric
// each one should move, and on which workload. A metric the workload has no
// samples for (approx latency on a workload with no approx requests) reads 0.
var layerMetrics = []metricDef{
	// internal/rwr — the matvec kernels and the power iterations over them.
	{"rwr.matvec_ns_per_edge", "ns"},
	{"rwr.matvec_pct_of_copy_bw", "%"},
	{"rwr.pmpn_ms", "ms"},
	{"rwr.pmpn_iters", "count"},
	{"rwr.forward_ms", "ms"},
	{"rwr.forward_batch16_ms_per_col", "ms"},
	// internal/core — the query engine, from the QueryStats View.Query returns.
	{"core.query_ms", "ms"},
	{"core.pmpn_share", "ratio"},
	{"core.decide_share", "ratio"},
	{"core.fallback_share", "ratio"},
	{"core.fallback_ms", "ms"},
	{"core.candidates_per_query", "count"},
	{"core.hits_per_query", "count"},
	{"core.refine_steps_per_query", "count"},
	{"core.fallbacks_per_query", "count"},
	{"core.results_per_query", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.anytime_ms", "ms"},
	{"core.anytime_rounds", "count"},
	{"core.anytime_maybe_per_query", "count"},
	{"core.screen_advance_us", "us"},
	{"core.bruteforce_ms", "ms"},
	// index build, size and load.
	{"bca.build_iters_per_node", "count"},
	{"hub.build_ms", "ms"},
	{"lbindex.build_us_per_node", "us"},
	{"lbindex.save_ms", "ms"},
	{"lbindex.bytes_per_node", "B"},
	{"lbindex.load_mmap_ms", "ms"},
	{"lbindex.load_heap_ms", "ms"},
	{"graph.load_edgelist_ms", "ms"},
	// internal/serve — cache, HTTP and JSON around the engine.
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.cache_get_ns", "ns"},
	{"serve.handler_hit_us", "us"},
	{"serve.http_hit_us", "us"},
	{"serve.handler_miss_overhead_us", "us"},
	// the write path.
	{"wal.append_fsync_us", "us"},
	{"wal.append_nosync_us", "us"},
	{"graph.overlay_apply_us_per_edit", "us"},
	{"evolve.refresh_ms_per_batch", "ms"},
	{"evolve.affected_per_batch", "count"},
	{"serve.pending_edits_max", "count"},
	{"serve.checkpoint_ms", "ms"},
	{"wal.replay_ms_per_batch", "ms"},
	// watch-only: no end-to-end workload runs shards on two cores.
	{"shard.query_ms_p2", "ms"},
	{"shard.prune_fraction", "ratio"},
	// what the real daemon showed on this workload's untraced pass, for the
	// request kinds only some workloads send.
	{"serve.approx_p50_ms", "ms"},
	{"serve.approx_p95_ms", "ms"},
	{"serve.edit_ack_p50_ms", "ms"},
	{"serve.edit_publish_p50_ms", "ms"},
	{"serve.recovery_s", "s"},
	// the harness itself.
	{"bench.writer_lateness_ms", "ms"},
	{"bench.untraced_qps", "1/s"},
	{"bench.traced_qps", "1/s"},
	{"bench.trace_overhead_pct", "%"},
}

// Sizes of the traced run's probes. They bound its running time; none of
// them feeds an end-to-end metric.
const (
	replayCap    = 150 // computed ops replayed by direct calls
	probeQueries = 8   // sample size of the per-fixture micro-probes
	probeBatches = 4   // edit batches applied by the write-path probe
	probeHits    = 2000
	loadReps     = 3
)

// layers accumulates samples per metric name; a metric's value is their
// median. The engine's own counters arrive as one sample each, already
// averaged over the replayed queries (see coreAgg), so that the phase shares
// and the per-query time multiply out.
type layers struct{ samples map[string][]float64 }

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *layers) metrics() []metric {
	ms := make([]metric, 0, len(layerMetrics))
	for _, def := range layerMetrics {
		vs := l.samples[def.name]
		if len(vs) == 0 {
			ms = append(ms, metric{def.name, def.unit, []float64{0}, 0})
			continue
		}
		ms = append(ms, metric{def.name, def.unit, vs, len(vs)})
	}
	return ms
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// runTraced is the -trace 1 run: one untraced pass against the real daemon
// (for the ratios only it can show and the overhead baseline), the same
// requests replayed against an in-process server behind a span-recording
// middleware, every computed request replayed once more by direct calls into
// core, and a fixed set of probes of each remaining layer on the same files.
func (h *harness) runTraced(w workload) (result, error) {
	h.logf("%s seed=%d: traced run", w.name, h.seed)
	dur := time.Duration(h.seconds / passes * float64(time.Second))
	var pl plan
	p, err := h.runPass(w, &pl, 0, dur, w.durable)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(p.dir)
	gt := &gate{}
	gt.requests("read", pl.reader, p.reader.outcomes)
	gt.requests("write", pl.writer, p.writer.outcomes)
	l := &layers{samples: map[string][]float64{}}
	h.untracedLayers(l, p)
	if w.durable {
		err := h.recovery(gt, w, p, pl.warm)
		if p.d != nil {
			p.d.kill()
		}
		if err != nil {
			return result{}, err
		}
		l.add("serve.recovery_s", gt.recoveryS)
	}
	if err := h.oracle(gt); err != nil {
		return result{}, err
	}
	for _, ms := range gt.bruteforceMS {
		l.add("core.bruteforce_ms", ms)
	}

	tr := newTracer()
	if err := h.tracedLayers(l, gt, tr, w, pl, p, dur); err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join("out", "trace."+w.name+".json")); err != nil {
		return result{}, err
	}
	h.logf("  self time by span: %v", tr.selfTimes())
	return result{workload: w.name, metrics: l.metrics(), attempted: gt.attempted, failed: gt.failed, misses: gt.misses}, nil
}

// untracedLayers reads what only the real daemon's pass can show.
func (h *harness) untracedLayers(l *layers, p *pass) {
	var hit, coalesced, rejected int
	for _, o := range p.reader.outcomes {
		switch {
		case o.cache == "HIT":
			hit++
		case o.cache == "COALESCED":
			coalesced++
		case o.status == http.StatusServiceUnavailable:
			rejected++
		}
	}
	n := float64(max(1, len(p.reader.outcomes)))
	l.add("serve.cache_hit_ratio", float64(hit)/n)
	l.add("serve.coalesced_ratio", float64(coalesced)/n)
	l.add("serve.rejected_ratio", float64(rejected)/n)
	for _, m := range summarize([]*pass{p}) {
		switch m.name {
		case "query_qps":
			l.add("bench.untraced_qps", m.value())
		case "approx_p50_ms", "approx_p95_ms", "edit_ack_p50_ms", "edit_publish_p50_ms":
			l.add("serve."+m.name, m.value())
		case "writer_lateness_ms":
			l.add("bench.writer_lateness_ms", m.value())
		}
	}
}

// tracedLayers does everything in-process.
func (h *harness) tracedLayers(l *layers, gt *gate, tr *tracer, w workload, pl plan, p *pass, dur time.Duration) error {
	// Loads, timed: the daemon's cold start is these three plus exec.
	var g *graph.Graph
	for i := 0; i < loadReps; i++ {
		t := time.Now()
		var err error
		if g, err = loadGraph(p.fx.graphPath); err != nil {
			return err
		}
		l.add("graph.load_edgelist_ms", msOf(time.Since(t)))
		t = time.Now()
		if _, err := lbindex.LoadFile(p.fx.indexPath, lbindex.LoadOptions{Mmap: false}); err != nil {
			return err
		}
		l.add("lbindex.load_heap_ms", msOf(time.Since(t)))
	}
	var idx *lbindex.Index
	for i := 0; i < loadReps; i++ {
		t := time.Now()
		var err error
		if idx, err = lbindex.LoadFile(p.fx.indexPath, lbindex.LoadOptions{Mmap: true}); err != nil {
			return err
		}
		l.add("lbindex.load_mmap_ms", msOf(time.Since(t)))
	}
	if err := h.buildLayers(l, g, p); err != nil {
		return err
	}

	// The same requests against an in-process server, spans recorded on
	// both sides of the loopback connection.
	cfg := serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	var srv *serve.Server
	var err error
	if w.durable {
		srv, _, err = serve.NewDurable(g, idx, cfg, serve.DurabilityConfig{
			JournalPath:       filepath.Join(p.dir, "traced.wal"),
			CheckpointDir:     filepath.Join(p.dir, "traced.ckpt"),
			CheckpointBatches: h.sc.ckptBatches,
		})
	} else {
		srv, err = serve.New(g, idx, cfg)
	}
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: tr.middleware(srv.Handler())}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()

	opID := func(prefix string) func(int) (string, string) {
		return func(i int) (string, string) { return serve.RequestIDHeader, prefix + strconv.Itoa(i) }
	}
	record := func(prefix string, outs []outcome) {
		for _, o := range outs {
			tr.add(0, prefix+strconv.Itoa(o.idx), "client.request", o.sent, o.took)
		}
	}
	warm := drive(h.client, base, loop{ops: pl.warm, clients: clients, header: opID("w")}, time.Now(), time.Hour)
	record("w", warm.outcomes)

	// The maintenance queue's depth while the timed phase runs.
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var deepest uint64
		for {
			select {
			case <-stop:
				if len(pl.writer) > 0 {
					l.add("serve.pending_edits_max", float64(deepest))
				}
				return
			case <-tick.C:
				deepest = max(deepest, srv.Stats().PendingEdits)
			}
		}
	}()
	reader, writer := h.timed(base, pl, dur, opID)
	close(stop)
	<-polled
	record("r", reader.outcomes)
	record("e", writer.outcomes)
	gt.requests("traced warm-up", pl.warm, warm.outcomes)
	gt.requests("traced read", pl.reader, reader.outcomes)
	gt.requests("traced write", pl.writer, writer.outcomes)
	tr.nest()
	exact, hits := 0, 0
	for _, o := range reader.outcomes {
		if o.kind == opExact && o.ok {
			exact++
		}
		if o.cache == "HIT" {
			hits++
		}
	}
	h.logf("  traced replay: %d requests, %d hits, edit publish p50 %.1f ms", len(reader.outcomes), hits, quantile(latencies(writer.outcomes, opEditPublish), 0.5))
	if reader.elapsed > 0 {
		traced := float64(exact) / reader.elapsed.Seconds()
		l.add("bench.traced_qps", traced)
		if un := l.samples["bench.untraced_qps"]; len(un) > 0 && un[0] > 0 {
			l.add("bench.trace_overhead_pct", 100*(un[0]-traced)/un[0])
		}
	}

	// Every request the server had to compute, replayed by direct calls
	// under the same op id.
	view, err := core.NewView(g, idx)
	if err != nil {
		return err
	}
	handler := tr.durations("serve.handler")
	var agg coreAgg
	replayed := 0
	for _, set := range []struct {
		prefix string
		ops    []op
		outs   []outcome
	}{{"w", pl.warm, warm.outcomes}, {"r", pl.reader, reader.outcomes}} {
		for _, o := range set.outs {
			if replayed == replayCap || o.cache != "MISS" || !o.ok {
				continue
			}
			replayed++
			id := set.prefix + strconv.Itoa(o.idx)
			d, err := replayDirect(tr, l, &agg, view, set.ops[o.idx], id)
			if err != nil {
				return err
			}
			if o.kind == opExact {
				l.add("serve.handler_miss_overhead_us", usOf(handler[id]-d))
			}
		}
	}
	agg.report(l, g.N())

	if err := h.serveProbes(l, srv, base, pl, g.N()); err != nil {
		return err
	}
	if err := h.rwrProbes(l, g, view, pl); err != nil {
		return err
	}
	if err := h.writeProbes(l, tr, g, p); err != nil {
		return err
	}
	return h.shardProbe(l, g, idx, pl)
}

// coreAgg sums the engine's own counters over the replayed exact queries.
type coreAgg struct {
	n                                              int
	elapsed, pmpn, decide, fallback                time.Duration
	iters, cands, hits, refine, fallbacks, results int
	withFallback                                   int
}

func (a *coreAgg) report(l *layers, n int) {
	if a.n == 0 {
		return
	}
	per := func(v int) float64 { return float64(v) / float64(a.n) }
	l.add("core.query_ms", msOf(a.elapsed)/float64(a.n))
	l.add("core.pmpn_share", float64(a.pmpn)/float64(a.elapsed))
	l.add("core.decide_share", float64(a.decide)/float64(a.elapsed))
	l.add("core.fallback_share", float64(a.fallback)/float64(a.elapsed))
	if a.withFallback > 0 {
		l.add("core.fallback_ms", msOf(a.fallback)/float64(a.withFallback))
	}
	l.add("rwr.pmpn_ms", msOf(a.pmpn)/float64(a.n))
	l.add("rwr.pmpn_iters", per(a.iters))
	l.add("core.candidates_per_query", per(a.cands))
	l.add("core.hits_per_query", per(a.hits))
	l.add("core.refine_steps_per_query", per(a.refine))
	l.add("core.fallbacks_per_query", per(a.fallbacks))
	l.add("core.results_per_query", per(a.results))
	l.add("core.prune_ratio", 1-per(a.cands)/float64(n))
}

// replayDirect runs one computed request by a direct call, single-threaded,
// recording the engine's phases as child spans laid end to end.
func replayDirect(tr *tracer, l *layers, agg *coreAgg, view *core.View, o op, id string) (time.Duration, error) {
	t := time.Now()
	if o.kind == opApprox {
		res, err := view.QueryAnytime(graph.NodeID(o.q), o.k, core.AnytimeOptions{Eps: 0.1}, 1)
		if err != nil {
			return 0, err
		}
		d := time.Since(t)
		parent := tr.add(0, id, "core.anytime", t, d)
		tr.add(parent, id, "rwr.pmpn", t, res.Stats.PMPNElapsed)
		l.add("core.anytime_ms", msOf(d))
		l.add("core.anytime_rounds", float64(res.Stats.Rounds))
		l.add("core.anytime_maybe_per_query", float64(res.Stats.Maybe))
		return d, nil
	}
	_, st, err := view.Query(graph.NodeID(o.q), o.k, 1)
	if err != nil {
		return 0, err
	}
	d := time.Since(t)
	parent := tr.add(0, id, "core.query", t, d)
	tr.add(parent, id, "rwr.pmpn", t, st.PMPNElapsed)
	tr.add(parent, id, "core.decide", t.Add(st.PMPNElapsed), st.DecideElapsed)
	if st.FallbackElapsed > 0 {
		tr.add(parent, id, "core.fallback", t.Add(st.PMPNElapsed+st.DecideElapsed), st.FallbackElapsed)
		agg.withFallback++
	}
	agg.n++
	agg.elapsed += st.Elapsed
	agg.pmpn += st.PMPNElapsed
	agg.decide += st.DecideElapsed
	agg.fallback += st.FallbackElapsed
	agg.iters += st.PMPNIters
	agg.cands += st.Candidates
	agg.hits += st.Hits
	agg.refine += st.RefineSteps
	agg.fallbacks += st.ExactFallbacks
	agg.results += st.Results
	return d, nil
}

// buildLayers rebuilds the index in-process from the graph the real rtkindex
// was given, with the options rtkindex uses, to read the build's own
// counters and time the save.
func (h *harness) buildLayers(l *layers, g *graph.Graph, p *pass) error {
	opts := lbindex.DefaultOptions()
	opts.K, opts.HubBudget = h.sc.maxK, p.fx.spec.b
	idx, st, err := lbindex.Build(g, opts)
	if err != nil {
		return err
	}
	n := float64(g.N())
	l.add("hub.build_ms", msOf(st.HubElapsed))
	l.add("lbindex.build_us_per_node", usOf(st.TotalElapsed)/n)
	l.add("bca.build_iters_per_node", float64(st.TotalIters)/max(1, n-float64(st.HubCount)))
	path := filepath.Join(p.dir, "rebuilt.idx")
	t := time.Now()
	if err := idx.SaveFile(path); err != nil {
		return err
	}
	l.add("lbindex.save_ms", msOf(time.Since(t)))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.add("lbindex.bytes_per_node", float64(fi.Size())/n)
	return os.Remove(path)
}

// serveProbes times the serving layer on a key the cache already holds:
// the cache alone, the handler without a socket, and the same over loopback.
func (h *harness) serveProbes(l *layers, srv *serve.Server, base string, pl plan, n int) error {
	hot := pl.reader[0]
	if len(pl.warm) > 0 {
		hot = pl.warm[0]
	}
	if _, status, err := get(h.client, base+hot.path); err != nil || status != http.StatusOK {
		return fmt.Errorf("priming %s: status %d err %v", hot.path, status, err)
	}
	handler := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, hot.path, nil)
	t := time.Now()
	for i := 0; i < probeHits; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "HIT" {
			return fmt.Errorf("handler probe on %s: status %d X-Cache %q", hot.path, rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	l.add("serve.handler_hit_us", usOf(time.Since(t))/probeHits)
	t = time.Now()
	for i := 0; i < probeHits; i++ {
		if _, status, err := get(h.client, base+hot.path); err != nil || status != http.StatusOK {
			return fmt.Errorf("http probe on %s: status %d err %v", hot.path, status, err)
		}
	}
	l.add("serve.http_hit_us", usOf(time.Since(t))/probeHits)

	cache := serve.NewCache(1 << 20)
	key := serve.CacheKey{Q: graph.NodeID(hot.q), K: hot.k, Epoch: 1}
	fill := func() ([]byte, error) { return []byte("{}"), nil }
	const gets = 200000
	t = time.Now()
	for i := 0; i <= gets; i++ {
		if _, _, err := cache.GetOrCompute(key, fill); err != nil {
			return err
		}
	}
	l.add("serve.cache_get_ns", float64(time.Since(t))/gets)
	return nil
}

// rwrProbes times the power iterations directly, and reads them against a
// copy-bandwidth probe taken in this process: the transposed matvec streams
// 12 bytes per edge (a 4-byte neighbour id and the 8-byte value gathered
// through it) and 24 per node (the value written, the inverse out-weight and
// a row offset), so bytes-per-iteration over time-per-iteration is the
// bandwidth the kernel achieved. The byte count is computed, not measured.
func (h *harness) rwrProbes(l *layers, g *graph.Graph, view *core.View, pl plan) error {
	src := make([]float64, 4<<20)
	dst := make([]float64, len(src))
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t := time.Now()
		copy(dst, src)
		best = min(best, time.Since(t))
	}
	copyBW := float64(2*8*len(src)) / best.Seconds() // bytes/s, read + write

	params := rwr.DefaultParams()
	nodes := probeNodes(pl)
	bytesPerIter := float64(12*g.M() + 24*g.N())
	for _, q := range nodes {
		t := time.Now()
		res, err := rwr.ProximityTo(g, q, params)
		if err != nil {
			return err
		}
		perIter := time.Since(t).Seconds() / float64(max(1, res.Iterations))
		l.add("rwr.matvec_ns_per_edge", perIter*1e9/float64(g.M()))
		l.add("rwr.matvec_pct_of_copy_bw", 100*bytesPerIter/perIter/copyBW)

		scr, err := view.NewScreen(10)
		if err != nil {
			return err
		}
		t = time.Now()
		scr.Advance(res.Vector, 0)
		l.add("core.screen_advance_us", usOf(time.Since(t)))

		t = time.Now()
		if _, err := rwr.ProximityVector(g, q, params); err != nil {
			return err
		}
		l.add("rwr.forward_ms", msOf(time.Since(t)))
	}
	origins := make([]graph.NodeID, 16)
	for i := range origins {
		origins[i] = nodes[i%len(nodes)] + graph.NodeID(i/len(nodes))
	}
	t := time.Now()
	if _, err := rwr.ProximityVectorBatch(g, origins, params, 1); err != nil {
		return err
	}
	l.add("rwr.forward_batch16_ms_per_col", msOf(time.Since(t))/float64(len(origins)))

	// The approx tier on this fixture, whether or not the workload sends
	// approx requests (social-mixed's own are replayed above as well).
	if len(l.samples["core.anytime_ms"]) == 0 {
		for _, q := range nodes {
			t := time.Now()
			res, err := view.QueryAnytime(q, 10, core.AnytimeOptions{Eps: 0.1}, 1)
			if err != nil {
				return err
			}
			l.add("core.anytime_ms", msOf(time.Since(t)))
			l.add("core.anytime_rounds", float64(res.Stats.Rounds))
			l.add("core.anytime_maybe_per_query", float64(res.Stats.Maybe))
		}
	}
	return nil
}

// probeNodes is the fixed node sample of the micro-probes: the first nodes
// of the workload's own request list.
func probeNodes(pl plan) []graph.NodeID {
	seen := map[int]bool{}
	var nodes []graph.NodeID
	for _, o := range append(append([]op(nil), pl.warm...), pl.reader...) {
		if len(nodes) == probeQueries {
			break
		}
		if !seen[o.q] {
			seen[o.q] = true
			nodes = append(nodes, graph.NodeID(o.q))
		}
	}
	return nodes
}

var promSample = regexp.MustCompile(`(?m)^(rtk_[a-z_]+)(?:\{[^}]*\})? ([0-9.e+-]+)$`)

// scrape reads name → value from the server's /metrics text (last sample of
// a name wins, which is all the unlabelled families read here need).
func scrape(srv *serve.Server) map[string]float64 {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, m := range promSample.FindAllStringSubmatch(rec.Body.String(), -1) {
		if v, err := strconv.ParseFloat(m[2], 64); err == nil {
			out[m[1]] = v
		}
	}
	return out
}

// writeProbes times the write path layer by layer on this fixture: journal
// appends with and without fsync, the overlay apply, the maintenance pass of
// an in-process server (which reports its evolve refresh), a checkpoint, and
// a journal replay at start-up.
func (h *harness) writeProbes(l *layers, tr *tracer, g *graph.Graph, p *pass) error {
	fixed, _ := h.rngs(workloads[len(workloads)-1])
	batches := editBatches(fixed, g, probeBatches, h.sc.editBatch)

	for _, mode := range []struct {
		name   string
		noSync bool
	}{{"wal.append_fsync_us", false}, {"wal.append_nosync_us", true}} {
		path := filepath.Join(p.dir, mode.name)
		log, _, err := wal.Open(path, wal.Options{NoSync: mode.noSync})
		if err != nil {
			return err
		}
		for i := 0; i < 8*probeBatches; i++ {
			t := time.Now()
			err := log.Append(wal.Record{Watermark: uint64(i + 1), Theta: editTheta, Edits: batches[i%len(batches)]})
			if err != nil {
				_ = log.Close()
				return err
			}
			d := time.Since(t)
			l.add(mode.name, usOf(d))
			if !mode.noSync && i < len(batches) {
				tr.add(0, "p"+strconv.Itoa(i), "wal.append", t, d)
			}
		}
		if err := log.Close(); err != nil {
			return err
		}
	}

	ov := graph.NewOverlay(g)
	for i, edits := range batches {
		t := time.Now()
		next, err := ov.Apply(edits)
		if err != nil {
			return err
		}
		d := time.Since(t)
		l.add("graph.overlay_apply_us_per_edit", usOf(d)/float64(len(edits)))
		tr.add(0, "p"+strconv.Itoa(i), "graph.overlay_apply", t, d)
		ov = next
	}

	// A journal-only server applies the batches, is closed, and is opened
	// again: the second open replays all of them.
	load := func() (*lbindex.Index, error) {
		return lbindex.LoadFile(p.fx.indexPath, lbindex.LoadOptions{Mmap: true})
	}
	idx, err := load()
	if err != nil {
		return err
	}
	journal := serve.DurabilityConfig{JournalPath: filepath.Join(p.dir, "probe.wal")}
	srv, _, err := serve.NewDurable(g, idx, serve.Config{}, journal)
	if err != nil {
		return err
	}
	for i, edits := range batches {
		t := time.Now()
		st, _, err := srv.ApplyEdits(edits, editTheta)
		if err != nil {
			srv.Close()
			return err
		}
		l.add("evolve.refresh_ms_per_batch", msOf(st.Elapsed))
		l.add("evolve.affected_per_batch", float64(st.Affected))
		parent := tr.add(0, "p"+strconv.Itoa(i), "serve.apply_edits", t, time.Since(t))
		tr.add(parent, "p"+strconv.Itoa(i), "evolve.refresh", t.Add(time.Since(t)-st.Elapsed), st.Elapsed)
	}
	srv.Close()
	if idx, err = load(); err != nil {
		return err
	}
	t := time.Now()
	srv, info, err := serve.NewDurable(g, idx, serve.Config{}, journal)
	if err != nil {
		return err
	}
	if info.Replayed > 0 {
		l.add("wal.replay_ms_per_batch", msOf(time.Since(t))/float64(info.Replayed))
	}
	srv.Close()

	// A server told to checkpoint after every batch, for the checkpoint's
	// own wall clock as the daemon's registry reports it.
	if idx, err = load(); err != nil {
		return err
	}
	srv, _, err = serve.NewDurable(g, idx, serve.Config{}, serve.DurabilityConfig{
		JournalPath:       filepath.Join(p.dir, "ckpt.wal"),
		CheckpointDir:     filepath.Join(p.dir, "ckpt.dir"),
		CheckpointBatches: 1,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if _, _, err := srv.ApplyEdits(batches[0], editTheta); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for srv.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no checkpoint within 30 s of a batch with -checkpoint-batches 1: %s", srv.Stats().LastMaintError)
		}
		time.Sleep(time.Millisecond)
	}
	m := scrape(srv)
	if c := m["rtk_checkpoint_duration_seconds_count"]; c > 0 {
		l.add("serve.checkpoint_ms", 1e3*m["rtk_checkpoint_duration_seconds_sum"]/c)
	}
	return nil
}

// shardProbe runs a two-way in-process coordinator over the same index.
func (h *harness) shardProbe(l *layers, g *graph.Graph, idx *lbindex.Index, pl plan) error {
	pm, err := partition.NewBalanced(g, 2)
	if err != nil {
		return err
	}
	co, err := shard.NewFromFull(g, idx, pm, shard.Config{})
	if err != nil {
		return err
	}
	for _, q := range probeNodes(pl) {
		_, st, err := co.Query(q, 10)
		if err != nil {
			return err
		}
		l.add("shard.query_ms_p2", msOf(st.Elapsed))
		l.add("shard.prune_fraction", float64(st.PrunedByBound)/float64(g.N()))
	}
	return nil
}

// curve is the optional latency-against-offered-load sweep: web-cold's
// requests sent open-loop at fixed rates on the usual two connections, each
// latency counted from the request's due time. It is printed, not gated:
// near saturation it does not repeat within a tenth on a shared box.
func (h *harness) curve(w workload) error {
	dir := filepath.Join(h.workDir, "curve")
	fx, err := buildFixture(h.tools, w.fixture(h.sc), h.sc.maxK, graphSeed, dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pl, err := h.plan(w, fx)
	if err != nil {
		return err
	}
	const limitMS = 500
	rates := []int{h.sc.coldRate / 4, h.sc.coldRate / 2, h.sc.coldRate, h.sc.coldRate * 3 / 2, h.sc.coldRate * 2}
	dur := time.Duration(h.seconds / float64(len(rates)) * float64(time.Second))
	h.logf("curve (%s, open loop, %d connections, %.1f s per rate, limit p95 ≤ %d ms)", w.name, clients, dur.Seconds(), limitMS)
	h.logf("  %8s %8s %8s %8s %10s %8s %8s", "rate/s", "sent", "failed", "p50 ms", "p95 ms", "late ms", "backlog")
	highest := 0
	for _, rate := range rates {
		// A fresh daemon per rate: the requests repeat across rates, and a
		// cached answer would make the higher rates look free.
		d, err := startDaemon(h.client, h.tools.serve, h.serveArgs(w, fx, dir)...)
		if err != nil {
			return err
		}
		interval := time.Second / time.Duration(rate)
		res := drive(h.client, d.base, loop{ops: pl.reader, clients: clients, interval: interval}, time.Now(), dur)
		d.kill()
		var ms, late []float64
		failed := 0
		for _, o := range res.outcomes {
			if !o.ok {
				failed++
				continue
			}
			ms = append(ms, o.ms)
			late = append(late, o.lateMS)
		}
		due := min(len(pl.reader), int(dur/interval))
		p95 := quantile(ms, 0.95)
		h.logf("  %8d %8d %8d %8.2f %10.2f %8.2f %8d", rate, len(res.outcomes), failed, quantile(ms, 0.5), p95, quantile(late, 0.95), max(0, due-len(res.outcomes)))
		if failed == 0 && p95 <= limitMS && due-len(res.outcomes) <= clients {
			highest = rate
		}
	}
	h.logf("  highest rate meeting the limit without a backlog: %d/s", highest)
	return nil
}
