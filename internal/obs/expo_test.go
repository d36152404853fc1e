package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// buildTestRegistry assembles a registry covering every metric kind plus
// the escaping edge cases the exposition format defines.
func buildTestRegistry() *Registry {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.")
	c.Add(42)
	v := r.NewCounterVec("errors_total", "Errors with \"quotes\", back\\slash and\nnewline.", "handler", "status")
	v.With("query", "500").Add(3)
	v.With("edits", "400").Inc()
	v.With("tricky\"label\\with\nstuff", "503").Inc()
	g := r.NewGauge("depth", "Queue depth.")
	g.Set(2.5)
	r.NewGaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 12.25 })
	r.NewCounterFuncs("drops_total", "Drops by cause.", "cause", map[string]func() float64{
		"epoch":    func() float64 { return 2 },
		"capacity": func() float64 { return 1 },
	})
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	return r
}

func TestExpositionGolden(t *testing.T) {
	r := buildTestRegistry()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP requests_total Total requests.
# TYPE requests_total counter
requests_total 42
# HELP errors_total Errors with "quotes", back\\slash and\nnewline.
# TYPE errors_total counter
errors_total{handler="edits",status="400"} 1
errors_total{handler="query",status="500"} 3
errors_total{handler="tricky\"label\\with\nstuff",status="503"} 1
# HELP depth Queue depth.
# TYPE depth gauge
depth 2.5
# HELP uptime_seconds Uptime.
# TYPE uptime_seconds gauge
uptime_seconds 12.25
# HELP drops_total Drops by cause.
# TYPE drops_total counter
drops_total{cause="capacity"} 1
drops_total{cause="epoch"} 2
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.01"} 1
latency_seconds_bucket{le="0.1"} 2
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.055
latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExpositionParsesBack round-trips the full registry through the
// parser: every declared family must come back with its HELP text, TYPE
// and samples intact, label escaping included.
func TestExpositionParsesBack(t *testing.T) {
	r := buildTestRegistry()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	if len(fams) != 6 {
		t.Fatalf("parsed %d families, want 6", len(fams))
	}
	if f := fams["errors_total"]; f == nil || f.Type != "counter" {
		t.Fatalf("errors_total family missing or mistyped: %+v", f)
	} else if f.Help != "Errors with \"quotes\", back\\slash and\nnewline." {
		t.Fatalf("HELP unescaping broken: %q", f.Help)
	}
	got, ok := SampleValue(fams, "errors_total", map[string]string{
		"handler": "tricky\"label\\with\nstuff", "status": "503",
	})
	if !ok || got != 1 {
		t.Fatalf("escaped-label sample = %v (found %v), want 1", got, ok)
	}
	if v, ok := SampleValue(fams, "latency_seconds_bucket", map[string]string{"le": "+Inf"}); !ok || v != 3 {
		t.Fatalf("+Inf bucket = %v (found %v), want 3", v, ok)
	}
	if v, ok := SampleValue(fams, "latency_seconds_count", nil); !ok || v != 3 {
		t.Fatalf("histogram count = %v (found %v), want 3", v, ok)
	}
	if v, ok := SampleValue(fams, "drops_total", map[string]string{"cause": "epoch"}); !ok || v != 2 {
		t.Fatalf("func-series sample = %v (found %v), want 2", v, ok)
	}
}

func TestParseRejectsUndeclaredSample(t *testing.T) {
	_, err := ParseText(strings.NewReader("mystery_metric 3\n"))
	if err == nil {
		t.Fatal("sample without HELP/TYPE accepted")
	}
}

func TestParseRejectsMalformedLabels(t *testing.T) {
	in := "# HELP x x\n# TYPE x counter\nx{a=\"unterminated} 1\n"
	if _, err := ParseText(strings.NewReader(in)); err == nil {
		t.Fatal("unterminated label value accepted")
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := buildTestRegistry()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q, want %q", ct, ContentType)
	}
	fams, err := ParseText(rec.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if v, ok := SampleValue(fams, "requests_total", nil); !ok || v != 42 {
		t.Fatalf("requests_total = %v (found %v), want 42", v, ok)
	}
}

func TestSlowLogRingBounds(t *testing.T) {
	sl := NewSlowLog(4, 0)
	for i := 0; i < 10; i++ {
		sl.Record(SlowEntry{Route: "q", Detail: string(rune('a' + i)), Duration: time.Duration(i+1) * time.Millisecond})
	}
	got := sl.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(got))
	}
	// Newest first: j, i, h, g.
	for i, want := range []string{"j", "i", "h", "g"} {
		if got[i].Detail != want {
			t.Fatalf("entry %d = %q, want %q (ring overwrote wrong slot)", i, got[i].Detail, want)
		}
	}
	// Threshold filter keeps only ≥ 9ms: j (10ms) and i (9ms).
	if f := sl.Snapshot(9 * time.Millisecond); len(f) != 2 {
		t.Fatalf("filtered snapshot holds %d entries, want 2", len(f))
	}
}

func TestSlowLogThresholdAndDisable(t *testing.T) {
	sl := NewSlowLog(8, 5*time.Millisecond)
	sl.Record(SlowEntry{Duration: time.Millisecond})
	sl.Record(SlowEntry{Duration: 6 * time.Millisecond})
	if got := sl.Snapshot(0); len(got) != 1 {
		t.Fatalf("threshold kept %d entries, want 1", len(got))
	}
	off := NewSlowLog(0, 0)
	off.Record(SlowEntry{Duration: time.Hour})
	if got := off.Snapshot(0); got != nil {
		t.Fatalf("disabled slowlog recorded %d entries", len(got))
	}
	var nilLog *SlowLog
	nilLog.Record(SlowEntry{Duration: time.Hour}) // must not panic
	for _, c := range []struct {
		log  *SlowLog
		d    time.Duration
		want bool
	}{{sl, time.Millisecond, false}, {sl, 5 * time.Millisecond, true}, {off, time.Hour, false}, {nilLog, time.Hour, false}} {
		if got := c.log.Keeps(c.d); got != c.want {
			t.Errorf("Keeps(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestSlowLogHandler(t *testing.T) {
	sl := NewSlowLog(4, 0)
	sl.Record(SlowEntry{Route: "reverse-topk", RequestID: "deadbeefdeadbeef", Duration: 120 * time.Millisecond,
		PhasesMS: map[string]float64{"pmpn": 80}})
	sl.Record(SlowEntry{Route: "reverse-topk", RequestID: "0123456789abcdef", Duration: 3 * time.Millisecond})

	rec := httptest.NewRecorder()
	sl.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog?threshold=50ms", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "deadbeefdeadbeef") || strings.Contains(body, "0123456789abcdef") {
		t.Fatalf("threshold filter wrong: %s", body)
	}
	if !strings.Contains(body, `"pmpn":80`) {
		t.Fatalf("phase breakdown missing: %s", body)
	}

	// Bare milliseconds accepted too.
	rec = httptest.NewRecorder()
	sl.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog?threshold=50", nil))
	if body := rec.Body.String(); !strings.Contains(body, "deadbeefdeadbeef") || strings.Contains(body, "0123456789abcdef") {
		t.Fatalf("numeric threshold filter wrong: %s", body)
	}

	rec = httptest.NewRecorder()
	sl.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog?threshold=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bogus threshold returned %d, want 400", rec.Code)
	}
}
