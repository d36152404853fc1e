// Package obs is the serving stack's observability core: a stdlib-only
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with a lock-free hot path, optionally labeled into families),
// a hand-written Prometheus text-format exposition writer and parser, a
// bounded slow-query ring buffer, and request-ID generation for cross-
// process correlation.
//
// The package deliberately avoids prometheus/client_golang, mirroring the
// repository's no-external-dependencies stance: the text exposition format
// is small and stable, and the handful of metric kinds the serving stack
// needs fit in a few hundred lines whose hot paths are single atomic
// operations.
//
// Concurrency: every metric update (Counter.Add, Gauge.Set,
// Histogram.Observe) is lock-free — safe from any goroutine, never
// blocking a query. Registration (Registry.NewCounter etc.) takes the
// registry mutex and is meant for startup; looking up a labeled series
// (CounterVec.With) reads a sync.Map and only locks on first use of a new
// label combination.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets in seconds: 100µs to 10s,
// roughly logarithmic — wide enough for a cache hit and a cold 1M-node
// PMPN alike.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram. Observe is lock-free: one atomic
// bucket increment, one atomic count increment, and a CAS loop folding the
// value into the running sum.
type Histogram struct {
	bounds []float64 // immutable after construction; ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot returns the cumulative bucket counts (one per bound, +Inf
// last), the total count, and the sum. Concurrent observations may land
// between the loads; each bucket is individually exact and monotone.
func (h *Histogram) Snapshot() (cumulative []uint64, count uint64, sum float64) {
	cumulative = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return cumulative, h.count.Load(), math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation within the containing bucket, the same estimate
// Prometheus's histogram_quantile computes. Returns 0 with no
// observations; values in the +Inf bucket report the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	cum, _, _ := h.Snapshot()
	total := cum[len(cum)-1]
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if i >= len(h.bounds) {
		// +Inf bucket: no finite upper edge to interpolate toward.
		if len(h.bounds) == 0 {
			return 0
		}
		return h.bounds[len(h.bounds)-1]
	}
	lo, hi := 0.0, h.bounds[i]
	var below uint64
	if i > 0 {
		lo = h.bounds[i-1]
		below = cum[i-1]
	}
	in := float64(cum[i] - below)
	if in == 0 {
		return hi
	}
	return lo + (hi-lo)*(rank-float64(below))/in
}

// metricKind discriminates family types in the exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance within a family.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one named metric with zero or more labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram families share bucket bounds

	byKey sync.Map // label key (values joined by \xff) → *series

	mu    sync.Mutex
	order []*series // guarded by mu; creation order, re-sorted at exposition
}

func (f *family) getOrCreate(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	if s, ok := f.byKey.Load(key); ok {
		return s.(*series)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey.Load(key); ok {
		return s.(*series)
	}
	vals := make([]string, len(values))
	copy(vals, values)
	s := &series{values: vals}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.order = append(f.order, s)
	f.byKey.Store(key, s)
	return s
}

// snapshotSeries returns the family's series sorted by label values, so
// exposition (and golden tests over it) is deterministic regardless of
// creation order.
func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	out := make([]*series, len(f.order))
	copy(out, f.order)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.getOrCreate(values).c }

// Total sums every series in the family.
func (v *CounterVec) Total() uint64 {
	var t uint64
	for _, s := range v.f.snapshotSeries() {
		t += s.c.Value()
	}
	return t
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.getOrCreate(values).h }

// Registry holds a set of metric families and writes them in Prometheus
// text exposition format. Metric names must be unique within a registry;
// duplicate or malformed registrations panic — they are programming
// errors, caught at startup, not runtime conditions.
type Registry struct {
	mu     sync.Mutex
	fams   []*family          // guarded by mu; registration order
	byName map[string]*family // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func (r *Registry) register(name, help string, kind metricKind, labels, values []string, bounds []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l, name))
		}
	}
	f := &family{name: name, help: help, kind: kind, labels: append([]string(nil), labels...), bounds: bounds}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	if values != nil {
		f.getOrCreate(values)
	}
	return f
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, []string{}, nil).getOrCreate(nil).c
}

// NewCounterVec registers a counter family with the given label names.
// Series materialize on first With.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil, nil)}
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, []string{}, nil).getOrCreate(nil).g
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
// fn must be safe to call from any goroutine.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGaugeFunc, nil, nil, nil)
	f.mu.Lock()
	f.order = append(f.order, &series{values: []string{}, fn: fn})
	f.mu.Unlock()
}

// NewCounterFuncs registers a one-label counter family whose series values
// are read at scrape time. The series set is fixed at registration.
func (r *Registry) NewCounterFuncs(name, help, label string, fns map[string]func() float64) {
	f := r.register(name, help, kindCounterFunc, []string{label}, nil, nil)
	keys := make([]string, 0, len(fns))
	for k := range fns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f.mu.Lock()
	for _, k := range keys {
		f.order = append(f.order, &series{values: []string{k}, fn: fns[k]})
	}
	f.mu.Unlock()
}

// NewHistogram registers an unlabeled histogram with the given bucket
// upper bounds (nil selects DefBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, help, kindHistogram, nil, []string{}, bounds).getOrCreate(nil).h
}

// NewHistogramVec registers a histogram family with the given label names
// and bucket upper bounds (nil selects DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, nil, bounds)}
}

// families returns the registered families in registration order.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.fams))
	copy(out, r.fams)
	return out
}
