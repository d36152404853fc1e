package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
)

// fixture is the pair most tests of this package serve: the oracle table's
// web family and a clone of its index.
func fixture(t *testing.T) (*graph.Graph, *lbindex.Index) {
	t.Helper()
	tab := oracle.Family(t, "web")
	return tab.Graph, tab.Index(t)
}

func newTestServer(t *testing.T, g *graph.Graph, idx *lbindex.Index, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(g, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func decodeQuery(t *testing.T, body []byte) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("malformed response body %q: %v", body, err)
	}
	return qr
}

// served asks base for (q, k) twice — the first request must be a computed
// MISS, the second a HIT with the same bytes — and returns the body for the
// caller to decode. params, when set, is appended to the query string (an
// approx request).
func served(t *testing.T, base string, q graph.NodeID, k int, params string) ([]byte, error) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d%s", base, q, k, params)
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		return nil, fmt.Errorf("first request X-Cache=%s, want MISS", got)
	}
	resp2, body2 := get(t, url)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "HIT" {
		return nil, fmt.Errorf("repeat status=%d X-Cache=%s, want 200 HIT", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		return nil, fmt.Errorf("cached body differs from fresh:\n%s\n%s", body, body2)
	}
	return body, nil
}

// exactRow is the handler's exact row of the oracle table against ts, whose
// snapshot is at epoch.
func exactRow(t *testing.T, row string, tab *oracle.Table, base string, epoch uint64) {
	t.Helper()
	oracle.Check(t, row, tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
		body, err := served(t, base, q, k, "")
		if err != nil {
			return nil, err
		}
		qr := decodeQuery(t, body)
		if qr.Epoch != epoch || qr.Count != len(qr.Results) || qr.Query != q || qr.K != k {
			return nil, fmt.Errorf("inconsistent envelope %+v, want epoch %d", qr, epoch)
		}
		return qr.Results, nil
	})
}

// TestServeMatchesOracle is the serve handler's exact row of the oracle
// table: on every family every served answer — cold, then cached byte for
// byte — is brute force's.
func TestServeMatchesOracle(t *testing.T) {
	for _, family := range oracle.Families() {
		tab := oracle.Family(t, family)
		_, ts := newTestServer(t, tab.Graph, tab.Index(t), Config{})
		exactRow(t, "GET /v1/reverse-topk", tab, ts.URL, 1)
	}
}

// TestServePostRefreshMatchesOracle is the handler's row after an edit
// batch: on every family, the family's batch — node growth included — posted
// to /v1/edits publishes epoch 2 and invalidates the cache, the snapshot
// serves the CSR a full rebuild with the edits gives, and every answer is
// brute force's on the applied graph.
func TestServePostRefreshMatchesOracle(t *testing.T) {
	for _, family := range oracle.Families() {
		tab := oracle.Family(t, family)
		s, ts := newTestServer(t, tab.Graph, tab.Index(t), Config{})
		if resp, body := get(t, ts.URL+"/v1/reverse-topk?q=5&k=4"); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup failed: %d %s", resp.StatusCode, body)
		}
		if s.Cache().Len() == 0 {
			t.Fatal("cache empty after warmup")
		}
		resp, er, raw := postEdits(t, ts.URL, EditsRequest{Edits: wire(tab.Edits), Wait: true})
		if resp.StatusCode != http.StatusOK || er.Epoch != 2 {
			t.Fatalf("%s: edits answered %d %s; want 200 and epoch 2", family, resp.StatusCode, raw)
		}
		if s.Cache().Len() != 0 {
			t.Errorf("cache still holds %d stale entries after epoch bump", s.Cache().Len())
		}
		rebuilt, err := evolve.ApplyEdits(tab.Graph, tab.Edits, graph.DanglingSelfLoop)
		if err != nil || !reflect.DeepEqual(s.Store().Current().View.Graph(), rebuilt) {
			t.Fatalf("%s: post-edit snapshot graph differs from the rebuilt one (rebuild error %v)", family, err)
		}
		exactRow(t, "GET /v1/reverse-topk after POST /v1/edits", tab.Applied(t), ts.URL, 2)
	}
}

// wire is an edit batch as POST /v1/edits carries it.
func wire(edits []evolve.Edit) []EditJSON {
	var out []EditJSON
	for _, e := range edits {
		out = append(out, EditJSON{From: e.From, To: e.To, Weight: e.Weight, Remove: e.Remove})
	}
	return out
}

// TestServeErrorPaths exercises every malformed-request path and its
// status code.
func TestServeErrorPaths(t *testing.T) {
	g, idx := fixture(t)
	s, ts := newTestServer(t, g, idx, Config{})

	cases := []struct {
		name   string
		path   string
		status int
	}{
		{"missing q", "/v1/reverse-topk?k=3", http.StatusBadRequest},
		{"missing k", "/v1/reverse-topk?q=3", http.StatusBadRequest},
		{"malformed q", "/v1/reverse-topk?q=abc&k=3", http.StatusBadRequest},
		{"malformed k", "/v1/reverse-topk?q=3&k=abc", http.StatusBadRequest},
		{"float k", "/v1/reverse-topk?q=3&k=2.5", http.StatusBadRequest},
		{"unknown node", fmt.Sprintf("/v1/reverse-topk?q=%d&k=3", g.N()), http.StatusNotFound},
		{"negative node", "/v1/reverse-topk?q=-1&k=3", http.StatusNotFound},
		{"k zero", "/v1/reverse-topk?q=3&k=0", http.StatusBadRequest},
		{"k above index K", fmt.Sprintf("/v1/reverse-topk?q=3&k=%d", idx.K()+1), http.StatusBadRequest},
		{"unknown path", "/v1/nope", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts.URL+tc.path)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if tc.status != http.StatusNotFound || strings.HasPrefix(tc.path, "/v1/reverse-topk") {
				var e map[string]string
				if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
					t.Errorf("error body not a JSON error object: %q", body)
				}
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/reverse-topk?q=1&k=2", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST to query endpoint: status %d, want 405", resp.StatusCode)
		}
	})
	t.Run("edits malformed body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/edits", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("edits removing a non-existent edge", func(t *testing.T) {
		var u, v graph.NodeID
	outer:
		for u = 0; int(u) < g.N(); u++ {
			for v = 0; int(v) < g.N(); v++ {
				if u != v && !g.HasEdge(u, v) {
					break outer
				}
			}
		}
		body, _ := json.Marshal(EditsRequest{Edits: []EditJSON{{From: u, To: v, Remove: true}}, Wait: true})
		resp, err := http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if got := s.Store().Current().Epoch; got != 1 {
			t.Fatalf("failed edit still bumped the epoch to %d", got)
		}
	})
	t.Run("edits empty batch", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/edits", "application/json", strings.NewReader(`{"edits":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestServeHealthAndStats covers /healthz (including drain flip) and the
// /v1/stats counters.
func TestServeHealthAndStats(t *testing.T) {
	g, idx := fixture(t)
	s, ts := newTestServer(t, g, idx, Config{})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// Two queries: one computed, one cached.
	get(t, ts.URL+"/v1/reverse-topk?q=1&k=3")
	get(t, ts.URL+"/v1/reverse-topk?q=1&k=3")
	resp, body = get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 2 || st.Computed != 1 || st.CacheHits != 1 || st.Epoch != 1 || st.Nodes != g.N() || st.MaxK != idx.K() {
		t.Errorf("unexpected stats %+v", st)
	}

	s.StartDrain()
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}
	// Draining rejects only health probes; queries still flow until the
	// listener closes.
	resp, _ = get(t, ts.URL+"/v1/reverse-topk?q=1&k=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query during drain: %d, want 200", resp.StatusCode)
	}
}

// TestServeAdmissionControl holds one computation open and checks that a
// second concurrent computation is rejected with 503 while a cache hit
// still succeeds.
func TestServeAdmissionControl(t *testing.T) {
	g, idx := fixture(t)
	s, err := New(g, idx, Config{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	gateEntered := make(chan struct{}, 8)
	gateRelease := make(chan struct{})
	release := sync.OnceFunc(func() { close(gateRelease) })
	var gateActive, computedWhileInactive atomic.Bool
	gateActive.Store(true)
	s.testComputeGate = func() {
		if gateActive.Load() {
			gateEntered <- struct{}{}
			<-gateRelease
		} else {
			computedWhileInactive.Store(true)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Cleanups run last-in first-out: a failure while the gate holds must
	// open it before the listener's and the server's Close wait on it.
	t.Cleanup(release)

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/reverse-topk?q=1&k=3")
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-gateEntered // the first computation is now occupying the only slot

	resp, body := get(t, ts.URL+"/v1/reverse-topk?q=2&k=3")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second computation: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	release()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("gated request finished with %d, want 200", code)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}

	// The completed answer is cached: a hit does not need an admission slot.
	gateActive.Store(false)
	resp, _ = get(t, ts.URL+"/v1/reverse-topk?q=1&k=3")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("cached query during saturation: %d %s", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if computedWhileInactive.Load() {
		t.Error("cache hit entered the compute path")
	}
}

// TestServeSingleFlight fires many identical queries at a cold cache and
// checks the engine ran exactly once, with every response identical.
func TestServeSingleFlight(t *testing.T) {
	g, idx := fixture(t)
	s, err := New(g, idx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Hold the first computation at the gate until all clients have sent
	// their requests, so the identical queries genuinely overlap.
	const clients = 16
	gateEntered := make(chan struct{}, clients)
	gateRelease := make(chan struct{})
	release := sync.OnceFunc(func() { close(gateRelease) })
	s.testComputeGate = func() {
		gateEntered <- struct{}{}
		<-gateRelease
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Cleanups run last-in first-out: a failure while the gate holds must
	// open it before the listener's and the server's Close wait on it.
	t.Cleanup(release)

	bodies := make([][]byte, clients)
	statuses := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/reverse-topk?q=3&k=4")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			statuses[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	<-gateEntered
	// All other clients are either coalesced onto the flight or not yet
	// arrived; release the computation and let everyone finish.
	release()
	wg.Wait()

	if got := s.Stats().Computed; got != 1 {
		t.Fatalf("%d identical concurrent queries ran the engine %d times, want 1", clients, got)
	}
	misses := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs: %s vs %s", i, bodies[i], bodies[0])
		}
		if statuses[i] == "MISS" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d clients reported MISS, want exactly 1", misses)
	}
}

// TestServeRefusesOtherGraph is the row of New and of NewDurable in the
// oracle table's pairing check: each serves an index only over the graph it
// was built on (core.NewView's check).
func TestServeRefusesOtherGraph(t *testing.T) {
	oracle.CheckPairing(t, "serve.New", func(g *graph.Graph, idx *lbindex.Index) error {
		s, err := New(g, idx, Config{})
		if err == nil {
			s.Close()
		}
		return err
	})
	oracle.CheckPairing(t, "serve.NewDurable", func(g *graph.Graph, idx *lbindex.Index) error {
		dcfg := DurabilityConfig{JournalPath: filepath.Join(t.TempDir(), "edits.wal")}
		s, _, err := NewDurable(g, idx, Config{}, dcfg)
		if err == nil {
			s.Close()
		}
		return err
	})
}
