package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one request share
// its op id; parent is the id of the span that caused this one (0 = root).
// Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The program under test
// records none of them: every span is taken from here, around a call into a
// layer's public function.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(parent int, op, name string, start time.Time, d time.Duration) int {
	at := int64(start.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: at, End: at + int64(d)})
	return id
}

// middleware records a serve.handler span per request, joined to the
// client's span by the request id the harness set.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if op := r.Header.Get(serve.RequestIDHeader); op != "" {
			t.add(0, op, "serve.handler", start, time.Since(start))
		}
	})
}

// selfTimes returns, per span name, the total duration minus the part of
// each span its children cover (children of one parent are laid end to end
// or nested, never overlapping, in this harness).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return self
}

// durations returns op id → duration of the spans with the given name.
func (t *tracer) durations(name string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// nest re-parents every serve.handler span under the client.request span of
// the same op, once both sides of the connection have finished recording.
func (t *tracer) nest() {
	t.mu.Lock()
	defer t.mu.Unlock()
	client := map[string]int{}
	for _, s := range t.spans {
		if s.Name == "client.request" {
			client[s.Op] = s.ID
		}
	}
	for i, s := range t.spans {
		if s.Name == "serve.handler" {
			t.spans[i].Parent = client[s.Op]
		}
	}
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
