package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
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
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

func testGraph(t *testing.T, seed int64, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testIndex(t *testing.T, g *graph.Graph, k int) *lbindex.Index {
	t.Helper()
	opts := lbindex.DefaultOptions()
	opts.K = k
	opts.HubBudget = 2
	opts.Workers = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// oracle answers reverse top-k queries from one exact proximity matrix
// computation (the §3 brute-force method), so a test can check many (q, k)
// pairs against one graph cheaply.
type oracle struct {
	cols [][]float64
}

func newOracle(t *testing.T, g *graph.Graph) *oracle {
	t.Helper()
	cols, err := rwr.ProximityMatrix(g, rwr.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle{cols: cols}
}

func (o *oracle) answer(q graph.NodeID, k int) []graph.NodeID {
	results := []graph.NodeID{}
	for u := range o.cols {
		if o.cols[u][q] >= vecmath.KthLargest(o.cols[u], k) {
			results = append(results, graph.NodeID(u))
		}
	}
	return results
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

func sameNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeMatchesOracle checks that every served answer — cold, then
// cached — equals the brute-force oracle.
func TestServeMatchesOracle(t *testing.T) {
	g := testGraph(t, 21, 50)
	idx := testIndex(t, g, 8)
	_, ts := newTestServer(t, g, idx, Config{})
	orc := newOracle(t, g)

	for _, q := range []int{0, 7, 23, 49} {
		for _, k := range []int{1, 3, 8} {
			url := fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d", ts.URL, q, k)
			resp, body := get(t, url)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("q=%d k=%d: status %d body %s", q, k, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Cache"); got != "MISS" {
				t.Errorf("q=%d k=%d: first request X-Cache=%s, want MISS", q, k, got)
			}
			qr := decodeQuery(t, body)
			want := orc.answer(graph.NodeID(q), k)
			if !sameNodes(qr.Results, want) {
				t.Errorf("q=%d k=%d: served %v, oracle %v", q, k, qr.Results, want)
			}
			if qr.Epoch != 1 || qr.Count != len(qr.Results) || qr.Query != graph.NodeID(q) || qr.K != k {
				t.Errorf("q=%d k=%d: inconsistent envelope %+v", q, k, qr)
			}

			// Second request: served from cache, byte-identical.
			resp2, body2 := get(t, url)
			if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "HIT" {
				t.Errorf("q=%d k=%d: repeat status=%d X-Cache=%s, want 200 HIT", q, k, resp2.StatusCode, resp2.Header.Get("X-Cache"))
			}
			if !bytes.Equal(body, body2) {
				t.Errorf("q=%d k=%d: cached body differs from fresh:\n%s\n%s", q, k, body, body2)
			}
		}
	}
}

// TestServePostRefreshMatchesOracle applies edits through the HTTP edits
// endpoint and checks that post-refresh answers match the new graph's
// oracle at the bumped epoch, with the old cache invalidated.
func TestServePostRefreshMatchesOracle(t *testing.T) {
	g := testGraph(t, 22, 40)
	idx := testIndex(t, g, 6)
	s, ts := newTestServer(t, g, idx, Config{})

	// Warm the cache on epoch 1.
	queryURL := ts.URL + "/v1/reverse-topk?q=5&k=4"
	resp, body1 := get(t, queryURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup failed: %d %s", resp.StatusCode, body1)
	}
	if s.Cache().Len() == 0 {
		t.Fatal("cache empty after warmup")
	}

	// Find two non-edges to insert and one edge to remove.
	var edits []EditJSON
	for u := graph.NodeID(0); len(edits) < 2 && int(u) < g.N(); u++ {
		for v := graph.NodeID(0); len(edits) < 2 && int(v) < g.N(); v++ {
			if u != v && !g.HasEdge(u, v) {
				edits = append(edits, EditJSON{From: u, To: v})
			}
		}
	}
	reqBody, _ := json.Marshal(EditsRequest{Edits: edits, Wait: true})
	postResp, err := http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	postBody, _ := io.ReadAll(postResp.Body)
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusOK {
		t.Fatalf("edits failed: %d %s", postResp.StatusCode, postBody)
	}
	var er EditsResponse
	if err := json.Unmarshal(postBody, &er); err != nil {
		t.Fatal(err)
	}
	if er.Epoch != 2 {
		t.Fatalf("published epoch %d, want 2", er.Epoch)
	}
	if s.Cache().Len() != 0 {
		t.Errorf("cache still holds %d stale entries after epoch bump", s.Cache().Len())
	}

	// Served answers now match the oracle of the EDITED graph.
	// The snapshot serves the CSR a full rebuild with the edits gives.
	g2 := s.Store().Current().View.Graph()
	var applied []evolve.Edit
	for _, e := range edits {
		applied = append(applied, evolve.Edit{From: e.From, To: e.To, Weight: e.Weight, Remove: e.Remove})
	}
	if rebuilt, err := evolve.ApplyEdits(g, applied, graph.DanglingSelfLoop); err != nil || !reflect.DeepEqual(g2, rebuilt) {
		t.Fatalf("post-edit snapshot graph differs from the rebuilt one (rebuild error %v)", err)
	}
	orc2 := newOracle(t, g2)
	for _, q := range []int{0, 5, 17, 39} {
		for _, k := range []int{1, 4, 6} {
			resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d", ts.URL, q, k))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("q=%d k=%d: status %d body %s", q, k, resp.StatusCode, body)
			}
			qr := decodeQuery(t, body)
			if qr.Epoch != 2 {
				t.Errorf("q=%d k=%d: served from epoch %d, want 2", q, k, qr.Epoch)
			}
			if want := orc2.answer(graph.NodeID(q), k); !sameNodes(qr.Results, want) {
				t.Errorf("q=%d k=%d: served %v, post-refresh oracle %v", q, k, qr.Results, want)
			}
		}
	}
}

// TestServeErrorPaths exercises every malformed-request path and its
// status code.
func TestServeErrorPaths(t *testing.T) {
	g := testGraph(t, 23, 30)
	idx := testIndex(t, g, 5)
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
		{"unknown node", "/v1/reverse-topk?q=30&k=3", http.StatusNotFound},
		{"negative node", "/v1/reverse-topk?q=-1&k=3", http.StatusNotFound},
		{"k zero", "/v1/reverse-topk?q=3&k=0", http.StatusBadRequest},
		{"k above index K", "/v1/reverse-topk?q=3&k=6", http.StatusBadRequest},
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
	g := testGraph(t, 24, 30)
	idx := testIndex(t, g, 5)
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
	if st.Served != 2 || st.Computed != 1 || st.CacheHits != 1 || st.Epoch != 1 || st.Nodes != 30 || st.MaxK != 5 {
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
	g := testGraph(t, 25, 40)
	idx := testIndex(t, g, 5)
	s, err := New(g, idx, Config{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	gateEntered := make(chan struct{}, 8)
	gateRelease := make(chan struct{})
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
	defer ts.Close()

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

	close(gateRelease)
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
	g := testGraph(t, 26, 40)
	idx := testIndex(t, g, 5)
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
	s.testComputeGate = func() {
		gateEntered <- struct{}{}
		<-gateRelease
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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
	close(gateRelease)
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

// TestServeRefusesOtherGraph: New and NewDurable serve an index only over
// the graph it was built on (core.NewView's check): another graph of the
// same node count is refused, and an equal graph built apart is served.
func TestServeRefusesOtherGraph(t *testing.T) {
	g := testGraph(t, 61, 40)
	idx := testIndex(t, g, 4)
	other := testGraph(t, 62, 40)
	if other.N() != g.N() {
		t.Fatalf("the graphs have %d and %d nodes", other.N(), g.N())
	}
	if _, err := New(other, idx, Config{}); err == nil {
		t.Error("New served an index over another graph")
	}
	dcfg := DurabilityConfig{JournalPath: filepath.Join(t.TempDir(), "edits.wal")}
	if _, _, err := NewDurable(other, idx, Config{}, dcfg); err == nil {
		t.Error("NewDurable served an index over another graph")
	}
	s, _, err := NewDurable(testGraph(t, 61, 40), idx, Config{}, dcfg)
	if err != nil {
		t.Fatalf("NewDurable refused an equal graph: %v", err)
	}
	s.Close()
}
