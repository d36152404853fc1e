package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/graph"
)

func decodeApprox(t *testing.T, body []byte) ApproxQueryResponse {
	t.Helper()
	var ar ApproxQueryResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("malformed approx body %q: %v", body, err)
	}
	return ar
}

// TestServeApproxMatchesOracle brackets every served anytime answer with
// the brute-force oracle: guaranteed ⊆ exact ⊆ guaranteed ∪ maybe, across
// (q, k, eps), with cached repeats byte-identical.
func TestServeApproxMatchesOracle(t *testing.T) {
	g := testGraph(t, 31, 60)
	idx := testIndex(t, g, 8)
	_, ts := newTestServer(t, g, idx, Config{})
	orc := newOracle(t, g)

	for _, q := range []int{0, 11, 42, 59} {
		for _, k := range []int{1, 4, 8} {
			for _, eps := range []string{"", "0.3", "0"} {
				url := fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d&mode=approx&delta=0", ts.URL, q, k)
				if eps != "" {
					url += "&eps=" + eps
				}
				resp, body := get(t, url)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("q=%d k=%d eps=%s: status %d body %s", q, k, eps, resp.StatusCode, body)
				}
				ar := decodeApprox(t, body)
				if ar.Mode != ModeApprox || ar.Query != graph.NodeID(q) || ar.K != k || ar.Count != len(ar.Results) {
					t.Fatalf("inconsistent envelope %+v", ar)
				}
				if eps == "" && ar.Eps != DefaultApproxEps {
					t.Fatalf("default eps not applied: %+v", ar)
				}
				want := orc.answer(graph.NodeID(q), k)
				inExact := map[graph.NodeID]bool{}
				for _, u := range want {
					inExact[u] = true
				}
				cover := map[graph.NodeID]bool{}
				for _, u := range ar.Results {
					if !inExact[u] {
						t.Fatalf("q=%d k=%d eps=%s: guaranteed %d not in exact %v", q, k, eps, u, want)
					}
					cover[u] = true
				}
				for _, u := range ar.Maybe {
					cover[u] = true
				}
				for _, u := range want {
					if !cover[u] {
						t.Fatalf("q=%d k=%d eps=%s: exact node %d uncovered (body %s)", q, k, eps, u, body)
					}
				}
				resp2, body2 := get(t, url)
				if resp2.Header.Get("X-Cache") != "HIT" {
					t.Errorf("q=%d k=%d eps=%s: repeat X-Cache=%s, want HIT", q, k, eps, resp2.Header.Get("X-Cache"))
				}
				if !bytes.Equal(body, body2) {
					t.Errorf("q=%d k=%d eps=%s: cached approx body differs", q, k, eps)
				}
			}
		}
	}
}

// TestServeApproxCacheIsolation is the cross-mode cache regression: the
// same (q, k) served exact then approx (and under two different eps) must
// be three distinct cache entries — each first request a MISS, each repeat
// a HIT of its own body type.
func TestServeApproxCacheIsolation(t *testing.T) {
	g := testGraph(t, 33, 50)
	idx := testIndex(t, g, 8)
	_, ts := newTestServer(t, g, idx, Config{})

	exactURL := fmt.Sprintf("%s/v1/reverse-topk?q=7&k=5", ts.URL)
	approxURL := fmt.Sprintf("%s/v1/reverse-topk?q=7&k=5&mode=approx&eps=0.2", ts.URL)
	tightURL := fmt.Sprintf("%s/v1/reverse-topk?q=7&k=5&mode=approx&eps=0.05", ts.URL)

	respE, bodyE := get(t, exactURL)
	if respE.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("exact first request X-Cache=%s", respE.Header.Get("X-Cache"))
	}
	respA, bodyA := get(t, approxURL)
	if respA.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("approx after exact was %s, want MISS (cache key must separate modes)", respA.Header.Get("X-Cache"))
	}
	respT, bodyT := get(t, tightURL)
	if respT.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("eps=0.05 after eps=0.2 was %s, want MISS (cache key must separate budgets)", respT.Header.Get("X-Cache"))
	}

	// Repeats hit, and each returns its own body type: exact bodies have no
	// mode field, approx bodies do.
	resp2, body2 := get(t, exactURL)
	if resp2.Header.Get("X-Cache") != "HIT" || !bytes.Equal(body2, bodyE) {
		t.Fatalf("exact repeat corrupted: X-Cache=%s", resp2.Header.Get("X-Cache"))
	}
	var raw map[string]any
	if err := json.Unmarshal(body2, &raw); err != nil {
		t.Fatal(err)
	}
	if _, hasMode := raw["mode"]; hasMode {
		t.Fatalf("exact request served an approx body: %s", body2)
	}
	resp3, body3 := get(t, approxURL)
	if resp3.Header.Get("X-Cache") != "HIT" || !bytes.Equal(body3, bodyA) {
		t.Fatalf("approx repeat corrupted: X-Cache=%s", resp3.Header.Get("X-Cache"))
	}
	if ar := decodeApprox(t, body3); ar.Mode != ModeApprox || ar.Eps != 0.2 {
		t.Fatalf("approx repeat wrong body: %s", body3)
	}
	if ar := decodeApprox(t, bodyT); ar.Eps != 0.05 {
		t.Fatalf("tight-eps body wrong: %s", bodyT)
	}
}

// approxValidationCases are the mode/eps/delta 400s, each with a fragment its
// error message must carry ("" checks the status only). A delta above 0 is
// refused by name: the Monte Carlo stage it budgeted is gone.
var approxValidationCases = []struct {
	name, params, msg string
}{
	{"unknown mode", "q=1&k=3&mode=fast", ""},
	{"eps without approx", "q=1&k=3&eps=0.1", ""},
	{"delta without approx", "q=1&k=3&delta=0.1", ""},
	{"eps=1", "q=1&k=3&mode=approx&eps=1", ""},
	{"negative eps", "q=1&k=3&mode=approx&eps=-0.1", ""},
	{"malformed eps", "q=1&k=3&mode=approx&eps=lots", ""},
	{"delta>0", "q=1&k=3&mode=approx&delta=0.001", "Monte Carlo stage was removed"},
	{"delta>0 with eps", "q=1&k=3&mode=approx&eps=0.2&delta=0.01", "Monte Carlo stage was removed"},
	{"delta too large", "q=1&k=3&mode=approx&delta=0.9", "Monte Carlo stage was removed"},
	{"negative delta", "q=1&k=3&mode=approx&delta=-0.1", ""},
	{"NaN delta", "q=1&k=3&mode=approx&delta=NaN", ""},
	{"malformed delta", "q=1&k=3&mode=approx&delta=x", ""},
}

// checkApproxValidation sends every approxValidationCases row to base.
func checkApproxValidation(t *testing.T, base string) {
	t.Helper()
	for _, tc := range approxValidationCases {
		resp, body := get(t, base+"/v1/reverse-topk?"+tc.params)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.msg)) {
			t.Errorf("%s: status %d body %s, want 400 naming %q", tc.name, resp.StatusCode, body, tc.msg)
		}
	}
}

// TestServeApproxValidation covers the mode/eps/delta 400s.
func TestServeApproxValidation(t *testing.T) {
	g := testGraph(t, 35, 30)
	idx := testIndex(t, g, 5)
	_, ts := newTestServer(t, g, idx, Config{})
	checkApproxValidation(t, ts.URL)
}

// TestServeApproxNegativeZeroEps: "-0" parses, equals 0 as a float and as a
// cache key, and would marshal as "eps":-0. Whichever of eps=-0 and eps=0
// fills the cache first, both bodies must read "eps":0 and be byte-equal, the
// cached one to the fresh one.
func TestServeApproxNegativeZeroEps(t *testing.T) {
	g := testGraph(t, 35, 30)
	idx := testIndex(t, g, 5)
	for _, order := range [][2]string{{"-0", "0"}, {"0", "-0"}} {
		_, ts := newTestServer(t, g, idx, Config{})
		var bodies [2][]byte
		for i, eps := range order {
			resp, body := get(t, ts.URL+"/v1/reverse-topk?q=1&k=3&mode=approx&delta=-0&eps="+eps)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("eps=%s: status %d body %s", eps, resp.StatusCode, body)
			}
			if !bytes.Contains(body, []byte(`"eps":0,`)) {
				t.Fatalf("eps=%s (order %v): body %s does not read \"eps\":0", eps, order, body)
			}
			bodies[i] = body
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("order %v: bodies differ:\n%s\n%s", order, bodies[0], bodies[1])
		}
	}
}

// TestServeApproxStats checks the /v1/stats anytime counters move.
func TestServeApproxStats(t *testing.T) {
	g := testGraph(t, 37, 40)
	idx := testIndex(t, g, 6)
	s, ts := newTestServer(t, g, idx, Config{})

	for q := 0; q < 5; q++ {
		resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=4&mode=approx&eps=0.2", ts.URL, q))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("q=%d: status %d body %s", q, resp.StatusCode, body)
		}
	}
	st := s.Stats()
	if st.ApproxComputed != 5 {
		t.Errorf("ApproxComputed=%d, want 5", st.ApproxComputed)
	}
	if st.ApproxRounds < 5 {
		t.Errorf("ApproxRounds=%d, want ≥ 5", st.ApproxRounds)
	}
	// And the counters survive the JSON envelope.
	resp, body := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	var sr StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ApproxComputed != st.ApproxComputed || sr.ApproxRounds != st.ApproxRounds {
		t.Errorf("stats body %+v disagrees with Stats() %+v", sr, st)
	}
}

// TestServeApproxConcurrentMixed hammers one server with interleaved exact
// and anytime requests for the -race harness, checking each response is of
// the requested type and internally consistent.
func TestServeApproxConcurrentMixed(t *testing.T) {
	g := testGraph(t, 39, 50)
	idx := testIndex(t, g, 8)
	_, ts := newTestServer(t, g, idx, Config{WorkerBudget: 4, MaxInflight: 64})

	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := i % 6
			if i%2 == 0 {
				resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=5&mode=approx&eps=0.2", ts.URL, q))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("approx q=%d: status %d body %s", q, resp.StatusCode, body)
					return
				}
				if ar := decodeApprox(t, body); ar.Mode != ModeApprox || ar.Query != graph.NodeID(q) {
					t.Errorf("approx q=%d: wrong body %s", q, body)
				}
			} else {
				resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=5", ts.URL, q))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("exact q=%d: status %d body %s", q, resp.StatusCode, body)
					return
				}
				var raw map[string]any
				if err := json.Unmarshal(body, &raw); err != nil {
					t.Errorf("exact q=%d: %v", q, err)
					return
				}
				if _, hasMode := raw["mode"]; hasMode {
					t.Errorf("exact q=%d: served approx body %s", q, body)
				}
			}
		}(i)
	}
	wg.Wait()
}
