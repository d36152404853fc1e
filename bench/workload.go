package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// clients is the number of connections every workload drives. It is fixed
// at the sandbox's core count rather than read from the machine so that a
// run elsewhere sends the same traffic.
const clients = 2

// passes is how many times a run sets up and measures; a metric's value is
// the median over passes. Every pass builds its fixture from nothing and
// starts its own daemon, so setup_s and coldstart_ms get one sample each
// per pass and a cached answer never survives into the next pass.
const passes = 3

// graphSeed generates every fixture graph. The run's seed picks the requests,
// not the graph: graphs of one family and size still differ by a tenth and
// more in index size, fallback rate and answer sizes, which is more than any
// bound in BENCHMARK.json, so a seeded graph would turn every metric into a
// measurement of the graph.
const graphSeed = 1

// coldK is the k of web-cold's queries (and of web-edits' reader). On the
// web fixture k=20 keeps the exact fallback the largest share of query time
// and leaves the median query on a flat stretch of the latency distribution;
// at k=10 the median sits on the step between the queries that need a
// fallback and those that do not, and moves by a tenth between seeds.
const coldK = 20

const extraColdStarts = 2

// editTheta is the staleness threshold the web-edits writer sends.
const editTheta = 1e-3

type workload struct {
	id      int64 // distinguishes the workloads' random streams
	name    string
	why     string
	fixture func(scale) fixtureSpec
	durable bool // serve with -journal and -checkpoint-dir
}

var workloads = []workload{
	{
		id:      0,
		name:    "web-cold",
		why:     "distinct exact queries: the cache never hits, rwr+core do the work and the exact fallback is the largest share",
		fixture: scale.web,
	},
	{
		id:      1,
		name:    "social-mixed",
		why:     "exact queries bound by BCA refinement alternate with approx ones that stop at the screen: same layers used two ways",
		fixture: scale.social,
	},
	{
		id:      2,
		name:    "web-hot",
		why:     "Zipf over a warmed working set that fits the cache: HTTP, cache, JSON, logging and obs do everything, the engine nothing",
		fixture: scale.web,
	},
	{
		id:      3,
		name:    "web-edits",
		why:     "a closed-loop reader of distinct queries beside an open-loop journaled writer: wal, overlay, evolve and checkpoints share the cores with queries",
		fixture: scale.web,
		durable: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// harness carries what every part of a run needs.
type harness struct {
	tools   tools
	sc      scale
	seed    int64
	seconds float64
	workDir string
	client  *http.Client
	logw    io.Writer
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.logw, format+"\n", args...)
}

// rngs returns a workload's two random sources. The fixed one depends only
// on the workload and picks which requests a pass may send; the seeded one
// depends on the run's seed and picks their order (and, on web-hot, the Zipf
// draws).
func (h *harness) rngs(w workload) (fixed, seeded *rand.Rand) {
	return rand.New(rand.NewSource(graphSeed*1000 + w.id)), rand.New(rand.NewSource(h.seed*1000 + w.id))
}

// plan is a workload's requests for one pass.
type plan struct {
	warm   []op // sent once, untimed, before the timed phase
	reader []op
	writer []op // web-edits only
}

// plan builds the request lists. A closed-loop list holds a fixed number of
// requests per second of pass length, sized (scale.coldRate and friends) so
// the seed code finishes the list a little before the pass's deadline: a
// pass then answers the same requests whatever the seed and whatever the
// code's speed, and the deadline only cuts off code that got much slower.
// Sampling a fresh few hundred nodes per seed instead would move the query
// percentiles by a fifth between seeds, because per-query cost is bimodal
// (fallback or not) and heavy-tailed in the query node's in-degree.
func (h *harness) plan(w workload, fx *fixture) (plan, error) {
	g, err := loadGraph(fx.graphPath)
	if err != nil {
		return plan{}, err
	}
	fixed, seeded := h.rngs(w)
	nodes := queryNodes(fixed, g)
	passS := h.seconds / passes
	shuffled := func(ops []op) []op {
		seeded.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		return ops
	}
	count := func(rate int) int { return min(len(nodes), max(1, int(float64(rate)*passS))) }
	switch w.name {
	case "web-cold":
		return plan{reader: shuffled(exactOps(nodes[:count(h.sc.coldRate)], coldK))}, nil
	case "social-mixed":
		return plan{reader: shuffled(mixedOps(nodes[:count(h.sc.mixedRate)], h.sc.maxK))}, nil
	case "web-hot":
		keys := hotKeys(nodes, h.sc.hotKeys)
		return plan{warm: keys, reader: zipfOps(seeded, keys, int(float64(h.sc.hotRate)*passS))}, nil
	case "web-edits":
		// The warm-up's answers are the only ones served before the first
		// edit; the gate recomputes them and re-reads them across the crash.
		warm := nodes[:h.sc.editWarmNodes]
		rest := nodes[len(warm):]
		batches := int(passS*float64(h.sc.editsPerSec)) + 1
		writer, err := editOps(editBatches(fixed, g, batches, h.sc.editBatch), editTheta)
		if err != nil {
			return plan{}, err
		}
		reader := exactOps(rest[:min(len(rest), count(h.sc.editReadRate))], coldK)
		return plan{warm: exactOps(warm, coldK), reader: shuffled(reader), writer: writer}, nil
	}
	return plan{}, fmt.Errorf("no plan for workload %q", w.name)
}

// pass is everything one set-up-and-measure cycle produced.
type pass struct {
	fx     *fixture
	dir    string
	d      *daemon // still running when the pass was asked to keep it
	setupS float64
	coldMS []float64 // exec of rtkserve → first 200, one per daemon start
	rssMB  float64
	warm   loopResult
	reader loopResult
	writer loopResult // web-edits only
	acked  uint64     // highest edit watermark the daemon acknowledged
}

func (h *harness) serveArgs(w workload, fx *fixture, dir string) []string {
	args := []string{"-graph", fx.graphPath, "-index", fx.indexPath, "-addr", "127.0.0.1:0"}
	if w.durable {
		args = append(args,
			"-journal", filepath.Join(dir, "edits.wal"),
			"-checkpoint-dir", filepath.Join(dir, "ckpt"),
			"-checkpoint-batches", strconv.Itoa(h.sc.ckptBatches))
	}
	return args
}

// timed drives the plan's timed phase: the reader loop on every connection
// the writer does not take, the writer (if any) open-loop beside it.
func (h *harness) timed(base string, pl plan, dur time.Duration, header func(prefix string) func(int) (string, string)) (reader, writer loopResult) {
	hdr := func(prefix string) func(int) (string, string) {
		if header == nil {
			return nil
		}
		return header(prefix)
	}
	start := time.Now()
	readers := clients
	var wg sync.WaitGroup
	if len(pl.writer) > 0 {
		readers--
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Second / time.Duration(h.sc.editsPerSec)
			writer = drive(h.client, base, loop{ops: pl.writer, clients: 1, interval: interval, keepBodies: len(pl.writer), header: hdr("e")}, start, dur)
		}()
	}
	reader = drive(h.client, base, loop{ops: pl.reader, clients: readers, keepBodies: 256, header: hdr("r")}, start, dur)
	wg.Wait()
	return reader, writer
}

// outs is every outcome of the pass's timed phase.
func (p *pass) outs() []outcome {
	return append(append([]outcome(nil), p.reader.outcomes...), p.writer.outcomes...)
}

// runPass builds the fixture, starts the daemon, warms it, and drives the
// timed phase for dur. The plan is computed on first use and reused, so every
// pass of a run sends the same requests. The daemon is left running only
// when keep is set; the pass's directory is the caller's to remove.
func (h *harness) runPass(w workload, pl *plan, idx int, dur time.Duration, keep bool) (*pass, error) {
	p := &pass{dir: filepath.Join(h.workDir, fmt.Sprintf("%s.pass%d", w.name, idx))}
	if err := os.RemoveAll(p.dir); err != nil {
		return nil, err
	}
	begin := time.Now()
	fx, err := buildFixture(h.tools, w.fixture(h.sc), h.sc.maxK, graphSeed, p.dir)
	if err != nil {
		return nil, err
	}
	p.fx = fx
	d, err := startDaemon(h.client, h.tools.serve, h.serveArgs(w, fx, p.dir)...)
	if err != nil {
		return nil, err
	}
	p.d, p.coldMS = d, []float64{d.coldMS}
	fail := func(err error) (*pass, error) {
		d.kill()
		return nil, fmt.Errorf("%s pass %d: %w\n%s", w.name, idx, err, d.log())
	}

	// Generating the requests is the harness's work, not the system's, so
	// it is kept out of setup_s.
	var planning time.Duration
	if pl.reader == nil {
		t := time.Now()
		if *pl, err = h.plan(w, fx); err != nil {
			return fail(err)
		}
		planning = time.Since(t)
	}
	if len(pl.warm) > 0 {
		p.warm = drive(h.client, d.base, loop{ops: pl.warm, clients: clients, keepBodies: len(pl.warm)}, time.Now(), time.Hour)
		for _, o := range p.warm.outcomes {
			if !o.ok {
				return fail(fmt.Errorf("warm-up request %s: status %d", pl.warm[o.idx].path, o.status))
			}
		}
	}
	p.setupS = (time.Since(begin) - planning).Seconds()

	p.reader, p.writer = h.timed(d.base, *pl, dur, nil)

	for i, body := range p.writer.bodies {
		wm, err := editWatermark(body)
		if err != nil {
			return fail(fmt.Errorf("edit batch %d: %w", i, err))
		}
		p.acked = max(p.acked, wm)
	}
	if p.acked > 0 {
		if _, err := d.waitApplied(h.client, p.acked, 60*time.Second); err != nil {
			return fail(err)
		}
	}
	if p.rssMB, err = d.peakRSSMB(); err != nil {
		return fail(err)
	}
	// Two more cold starts on the same files: one sample per pass leaves
	// coldstart_ms at the mercy of a single scheduling hiccup.
	for i := 0; i < extraColdStarts; i++ {
		coldDir := filepath.Join(p.dir, fmt.Sprintf("cold%d", i))
		if err := os.MkdirAll(coldDir, 0o755); err != nil {
			return fail(err)
		}
		extra, err := startDaemon(h.client, h.tools.serve, h.serveArgs(w, fx, coldDir)...)
		if err != nil {
			return fail(err)
		}
		p.coldMS = append(p.coldMS, extra.coldMS)
		extra.kill()
	}
	if !keep {
		p.d = nil
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// metric is one named number of a run: the median over passes, with the
// range the passes spanned and how many request samples lie under it.
type metric struct {
	name    string
	unit    string
	perPass []float64
	samples int
}

func (m metric) value() float64 { return median(m.perPass) }

type metricDef struct{ name, unit string }

// endToEnd lists, in print order, every end-to-end number a run can report.
// The first seven exist on every workload and are the ones BENCHMARK.json
// bounds; the rest exist only where a workload sends that kind of request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"coldstart_ms", "ms"},
	{"query_qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"daemon_rss_mb", "MB"},
	{"index_mb", "MB"},
	{"approx_p50_ms", "ms"},
	{"approx_p95_ms", "ms"},
	{"edit_ack_p50_ms", "ms"},
	{"edit_publish_p50_ms", "ms"},
	{"writer_lateness_ms", "ms"},
	{"cache_hit_ratio", "ratio"},
	{"recovery_s", "s"},
}

// boundedMetrics is how many leading entries of endToEnd every workload has.
const boundedMetrics = 7

// summarize turns the passes into end-to-end metrics. A metric whose kind
// of request the workload never sends is absent.
func summarize(ps []*pass) []metric {
	perPass := map[string][]float64{}
	samples := map[string]int{}
	add := func(name string, v float64, n int) {
		perPass[name] = append(perPass[name], v)
		samples[name] += n
	}
	for _, p := range ps {
		outs := p.outs()
		add("setup_s", p.setupS, 1)
		add("coldstart_ms", median(p.coldMS), len(p.coldMS))
		add("daemon_rss_mb", p.rssMB, 1)
		add("index_mb", p.fx.indexMB, 1)
		ex := latencies(outs, opExact)
		if p.reader.elapsed > 0 {
			add("query_qps", float64(len(ex))/p.reader.elapsed.Seconds(), len(ex))
		}
		add("query_p50_ms", quantile(ex, 0.50), len(ex))
		add("query_p95_ms", quantile(ex, 0.95), len(ex))
		hits := 0
		for _, o := range p.reader.outcomes {
			if o.cache == "HIT" {
				hits++
			}
		}
		add("cache_hit_ratio", float64(hits)/float64(max(1, len(p.reader.outcomes))), len(p.reader.outcomes))
		if ms := latencies(outs, opApprox); len(ms) > 0 {
			add("approx_p50_ms", quantile(ms, 0.50), len(ms))
			add("approx_p95_ms", quantile(ms, 0.95), len(ms))
		}
		if ms := latencies(outs, opEditAck); len(ms) > 0 {
			add("edit_ack_p50_ms", quantile(ms, 0.50), len(ms))
		}
		if ms := latencies(outs, opEditPublish); len(ms) > 0 {
			add("edit_publish_p50_ms", quantile(ms, 0.50), len(ms))
		}
		var late []float64
		for _, o := range outs {
			if o.kind == opEditAck || o.kind == opEditPublish {
				late = append(late, o.lateMS)
			}
		}
		if len(late) > 0 {
			add("writer_lateness_ms", quantile(late, 0.95), len(late))
		}
	}
	var ms []metric
	for _, def := range endToEnd {
		if vs, ok := perPass[def.name]; ok {
			ms = append(ms, metric{def.name, def.unit, vs, samples[def.name]})
		}
	}
	return ms
}
