package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// SlowEntry is one captured slow request.
type SlowEntry struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id,omitempty"`
	// Route is the handler that served the request (e.g. "reverse-topk").
	Route string `json:"route"`
	// Detail is a short human-readable request summary ("q=17 k=10 mode=exact").
	Detail     string  `json:"detail,omitempty"`
	DurationMS float64 `json:"duration_ms"`
	// PhasesMS breaks the duration into named phases (pmpn, decide,
	// fallback, mc) when the request actually computed.
	PhasesMS map[string]float64 `json:"phases_ms,omitempty"`
	// Duration is the wall clock the entry was recorded with; DurationMS
	// is its JSON projection.
	Duration time.Duration `json:"-"`
}

// SlowLog is a bounded ring buffer of slow requests: recording is O(1),
// memory is fixed at capacity entries, and the oldest entry is overwritten
// when the ring is full. Safe for concurrent use.
type SlowLog struct {
	capacity  int
	threshold time.Duration

	mu   sync.Mutex
	ring []SlowEntry // guarded by mu
	next int         // guarded by mu; ring index the next entry lands in
	size int         // guarded by mu; entries recorded, capped at capacity
}

// NewSlowLog creates a ring of at most capacity entries recording requests
// whose duration is at least threshold. capacity ≤ 0 disables recording
// entirely; threshold ≤ 0 records every offered request.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	s := &SlowLog{capacity: capacity, threshold: threshold}
	if capacity > 0 {
		s.ring = make([]SlowEntry, capacity)
	}
	return s
}

// Threshold returns the configured recording threshold.
func (s *SlowLog) Threshold() time.Duration { return s.threshold }

// Keeps reports whether Record would keep a request that took d: recording
// is enabled and d reaches the threshold. A caller whose entry costs
// something to build asks first.
func (s *SlowLog) Keeps(d time.Duration) bool {
	return s != nil && s.capacity > 0 && d >= s.threshold
}

// Record offers one request to the ring; it is kept when Keeps(e.Duration).
func (s *SlowLog) Record(e SlowEntry) {
	if !s.Keeps(e.Duration) {
		return
	}
	e.DurationMS = float64(e.Duration) / float64(time.Millisecond)
	s.mu.Lock()
	s.ring[s.next] = e
	s.next = (s.next + 1) % s.capacity
	if s.size < s.capacity {
		s.size++
	}
	s.mu.Unlock()
}

// Snapshot returns the recorded entries with duration ≥ min, newest first.
func (s *SlowLog) Snapshot(min time.Duration) []SlowEntry {
	if s == nil || s.capacity <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SlowEntry, 0, s.size)
	for i := 0; i < s.size; i++ {
		e := s.ring[(s.next-1-i+2*s.capacity)%s.capacity]
		if e.Duration >= min {
			out = append(out, e)
		}
	}
	return out
}

// slowLogResponse is the JSON body of the slowlog endpoint.
type slowLogResponse struct {
	ThresholdMS float64     `json:"record_threshold_ms"`
	Capacity    int         `json:"capacity"`
	Count       int         `json:"count"`
	Entries     []SlowEntry `json:"entries"`
}

// Handler serves the ring as JSON, newest first. The optional ?threshold=
// query parameter filters the returned entries to durations at or above
// it; it accepts a Go duration string ("250ms", "1.5s") or a bare number
// of milliseconds.
func (s *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var min time.Duration
		if raw := r.URL.Query().Get("threshold"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil {
				ms, ferr := strconv.ParseFloat(raw, 64)
				if ferr != nil {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusBadRequest)
					body, _ := json.Marshal(map[string]string{"error": "threshold must be a duration (\"250ms\") or milliseconds"})
					_, _ = w.Write(body)
					return
				}
				d = time.Duration(ms * float64(time.Millisecond))
			}
			min = d
		}
		entries := s.Snapshot(min)
		if entries == nil {
			entries = []SlowEntry{}
		}
		resp := slowLogResponse{
			ThresholdMS: float64(s.Threshold()) / float64(time.Millisecond),
			Capacity:    s.capacity,
			Count:       len(entries),
			Entries:     entries,
		}
		w.Header().Set("Content-Type", "application/json")
		body, _ := json.Marshal(resp)
		_, _ = w.Write(body)
	})
}
