package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
	"repro/internal/partition"
)

// fanoutFixture spins up P shard daemons over slices of one index plus a
// coordinator in front of them, and returns everything needed to compare
// against the oracle table.
type fanoutFixture struct {
	g        *graph.Graph
	idx      *lbindex.Index
	shards   []*Server
	shardSrv []*httptest.Server
	fan      *Fanout
	fanSrv   *httptest.Server
}

// newFanoutFixture serves tab's graph from p shards cut at the given
// bounds, or balanced when bounds is nil.
func newFanoutFixture(t *testing.T, tab *oracle.Table, p int, bounds []int32) *fanoutFixture {
	t.Helper()
	g, idx := tab.Graph, tab.Index(t)
	pm, err := partition.NewBalanced(g, p)
	if bounds != nil {
		pm, err = partition.FromParts(g.N(), p, bounds)
	}
	if err != nil {
		t.Fatal(err)
	}
	fx := &fanoutFixture{g: g, idx: idx}
	urls := make([]string, p)
	for s := 0; s < p; s++ {
		slice, err := idx.ShardSlice(pm, s)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(g, slice, Config{})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		fx.shards = append(fx.shards, srv)
		fx.shardSrv = append(fx.shardSrv, hs)
		urls[s] = hs.URL
	}
	fan, err := NewFanout(FanoutConfig{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	fx.fan = fan
	fx.fanSrv = httptest.NewServer(fan.Handler())
	t.Cleanup(func() {
		fx.fanSrv.Close()
		for i := range fx.shards {
			fx.shardSrv[i].Close()
			fx.shards[i].Close()
		}
	})
	return fx
}

func (fx *fanoutFixture) query(t *testing.T, q, k int) ([]graph.NodeID, *http.Response) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d", fx.fanSrv.URL, q, k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator query q=%d k=%d: %d %s", q, k, resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("malformed coordinator body: %v", err)
	}
	return qr.Results, resp
}

// TestFanoutMatchesSingleEngine is the HTTP fan-out's row of the oracle
// table: a coordinator over P ∈ {1, 2, 4} shard daemons — one whole, an
// equal cut and a balanced one, taken in turn — answers as brute force on
// every other family (the shards' own answers are the in-process
// coordinator's rows, on all of them).
func TestFanoutMatchesSingleEngine(t *testing.T) {
	for i, family := range oracle.Families() {
		if i%2 != 0 {
			continue
		}
		tab := oracle.Family(t, family)
		n := int32(tab.Graph.N())
		for _, tc := range []struct {
			p      int
			bounds []int32
		}{{1, []int32{0, n}}, {2, []int32{0, n / 2, n}}, {4, nil}}[i/2%3 : i/2%3+1] {
			fx := newFanoutFixture(t, tab, tc.p, tc.bounds)
			oracle.Check(t, fmt.Sprintf("Fanout P=%d bounds %v", tc.p, tc.bounds), tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
				got, _ := fx.query(t, int(q), k)
				return got, nil
			})
		}
	}
}

// TestFanoutApprox: mode=approx through the fan-out coordinator merges the
// per-shard anytime answers into one two-part response that still brackets
// the exact answer, across P, over a near-equal cut and a balanced one;
// parameter errors relay the shard's 400.
func TestFanoutApprox(t *testing.T) {
	for _, tc := range []struct {
		p        int
		strategy string
		bounds   []int32
	}{{1, "range", []int32{0, 300}}, {3, "balanced", nil}} {
		tab := oracle.Family(t, "web")
		fx := newFanoutFixture(t, tab, tc.p, tc.bounds)
		for _, q := range []int{0, 42, 299} {
			resp, err := http.Get(fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=10&mode=approx&eps=0.2", fx.fanSrv.URL, q))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("P=%d %s q=%d: %d %s", tc.p, tc.strategy, q, resp.StatusCode, body)
			}
			var ar ApproxQueryResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				t.Fatalf("malformed merged approx body %q: %v", body, err)
			}
			if ar.Mode != ModeApprox || ar.Eps != 0.2 || ar.Count != len(ar.Results) {
				t.Fatalf("inconsistent merged envelope %+v", ar)
			}
			if err := oracle.Brackets(ar.Results, ar.Maybe, tab.Want(graph.NodeID(q), 10)); err != nil {
				t.Fatalf("P=%d %s q=%d: %v", tc.p, tc.strategy, q, err)
			}
		}
		resp, err := http.Get(fx.fanSrv.URL + "/v1/reverse-topk?q=1&k=5&mode=approx&eps=2")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("eps=2 through coordinator gave %d, want 400", resp.StatusCode)
		}
	}
}

// TestFanoutEditsBroadcast is the fan-out's row after an edit batch: one
// POST of the web family's batch — node growth included — to the
// coordinator lands on every shard, each shard re-indexing only its own
// rows, and the post-edit answers are brute force's on the applied graph.
func TestFanoutEditsBroadcast(t *testing.T) {
	tab := oracle.Family(t, "web")
	fx := newFanoutFixture(t, tab, 2, []int32{0, 150, 300})
	body, _ := json.Marshal(EditsRequest{Edits: wire(tab.Edits), Wait: true})
	resp, err := http.Post(fx.fanSrv.URL+"/v1/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator edits: %d %s", resp.StatusCode, raw)
	}
	var out struct {
		Shards []EditsResponse `json:"shards"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Shards) != 2 {
		t.Fatalf("edit response covers %d shards", len(out.Shards))
	}
	affectedTotal := 0
	for i, sh := range out.Shards {
		if sh.Epoch != 2 {
			t.Errorf("shard %d epoch %d after first batch", i, sh.Epoch)
		}
		affectedTotal += sh.Affected
	}
	// Each shard refreshes only its owned origins: no single shard does all
	// of the work (the batch touches origins on both halves of the cut).
	for i, sh := range out.Shards {
		if sh.Affected == affectedTotal && affectedTotal > 1 {
			t.Errorf("shard %d refreshed every affected origin (%d); routing to owner failed", i, sh.Affected)
		}
	}
	oracle.Check(t, "Fanout after POST /v1/edits", tab.Applied(t), func(q graph.NodeID, k int) ([]graph.NodeID, error) {
		got, _ := fx.query(t, int(q), k)
		return got, nil
	})
}

// TestFanoutErrorPaths: parameter errors relay the shard's 4xx; a dead
// shard turns queries into 502 and /healthz into 503.
func TestFanoutErrorPaths(t *testing.T) {
	fx := newFanoutFixture(t, oracle.Family(t, "web"), 2, []int32{0, 150, 300})

	resp, err := http.Get(fx.fanSrv.URL + "/v1/reverse-topk?q=99999&k=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range q relayed as %d", resp.StatusCode)
	}
	// The shards' parameter 400s are relayed verbatim, delta > 0 naming the
	// removed Monte Carlo stage.
	checkApproxValidation(t, fx.fanSrv.URL)

	resp, err = http.Get(fx.fanSrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st FanoutStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Shards != 2 || len(st.ShardStats) != 2 {
		t.Fatalf("stats cover %d shards, raw %d", st.Shards, len(st.ShardStats))
	}
	var shardStats StatsResponse
	if err := json.Unmarshal(st.ShardStats[1], &shardStats); err != nil {
		t.Fatal(err)
	}
	if shardStats.ShardID == nil || *shardStats.ShardID != 1 || shardStats.ShardCount != 2 {
		t.Fatalf("shard 1 stats lack shard identity: %+v", shardStats)
	}

	// Kill shard 1: queries must fail loudly, health must go red.
	fx.shardSrv[1].Close()
	resp, err = http.Get(fx.fanSrv.URL + "/v1/reverse-topk?q=1&k=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead shard produced %d, want 502", resp.StatusCode)
	}
	resp, err = http.Get(fx.fanSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead shard: %d, want 503", resp.StatusCode)
	}
}

// TestFanoutErrorStatusLogged: the coordinator refuses at start a shard set
// that is not the shards of one partition in shard order, and its request
// log line carries the status it sent — a shard's relayed 4xx (out-of-range
// q), the 502 of a shard's approx body that does not parse, and the 502
// naming the shard whose reply names another shard (a daemon restarted
// behind its URL with another slice). A shard set over two graphs that
// differ in one edge's weight, with equal degrees and partition bounds, is
// refused by its graph digests alone.
func TestFanoutErrorStatusLogged(t *testing.T) {
	fx := newFanoutFixture(t, oracle.Family(t, "web"), 2, []int32{0, 150, 300})
	recut := newFanoutFixture(t, oracle.Family(t, "web"), 2, []int32{0, 140, 300})
	u := graph.NodeID(5)
	x := fx.g.OutNeighbors(u)[0]
	rg, err := fx.g.Apply([]graph.EdgeEdit{{From: u, To: x, Remove: true}, {From: u, To: x, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ridx, _, err := lbindex.Build(rg, fx.idx.Options())
	if err != nil {
		t.Fatal(err)
	}
	pm, _, _ := fx.shards[1].Store().Current().View.Index().Shard()
	rslice, err := ridx.ShardSlice(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	reweighted, err := New(rg, rslice, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reweighted.Close)
	reweightedURL := newTestListener(t, reweighted.Handler())
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ShardHeader, "0/1")
		if r.URL.Path == "/v1/stats" {
			w.Write([]byte(`{"shard_id":0,"shard_count":1,"partition_bounds":[0,1]}`))
			return
		}
		w.Write([]byte("not json"))
	}))
	t.Cleanup(stub.Close)
	// moving serves shard 0 until swapped, then shard 1.
	var swapped atomic.Bool
	moving := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if swapped.Load() {
			fx.shards[1].Handler().ServeHTTP(w, r)
			return
		}
		fx.shards[0].Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(moving.Close)
	full, err := New(fx.g, fx.idx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(full.Close)
	fullURL := newTestListener(t, full.Handler())
	s0, s1 := fx.shardSrv[0].URL, fx.shardSrv[1].URL
	for _, tc := range []struct {
		name     string
		shards   []string
		params   string
		startErr string // NewFanout's refusal; "" when it must accept the set
		msg      string // in the error body, when not ""
	}{
		{"out-of-range q", []string{s0, s1}, "q=99999&k=5", "", ""},
		{"malformed approx body", []string{stub.URL}, "q=1&k=5&mode=approx", "", "malformed body"},
		{"one shard twice", []string{s0, s0}, "", "shard 1 (" + s0 + ") serves shard 0 of 2, want shard 1 of 2", ""},
		{"shards of two partitions", []string{s0, recut.shardSrv[1].URL}, "", "has partition bounds [0 140 300], shard 0 has [0 150 300]", ""},
		{"full index", []string{fullURL}, "", "serves a full index, not a shard slice", ""},
		{"shards of two graphs", []string{s0, reweightedURL}, "", "shard 1 (" + reweightedURL + ") serves graph ", ""},
		{"swapped shard", []string{moving.URL, s1}, "q=1&k=5", "", `shard 0 (` + moving.URL + `) answered as shard \"1/2\"`},
	} {
		buf, logger := newTestLogger()
		swapped.Store(false)
		fan, err := NewFanout(FanoutConfig{Shards: tc.shards, Logger: logger})
		if tc.startErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.startErr) {
				t.Fatalf("%s: NewFanout error %v, want one containing %q", tc.name, err, tc.startErr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		swapped.Store(true)
		rec := httptest.NewRecorder()
		fan.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/reverse-topk?"+tc.params, nil))
		if rec.Code < 400 || !strings.Contains(rec.Body.String(), tc.msg) {
			t.Fatalf("%s: status %d body %s, want an error naming %q", tc.name, rec.Code, rec.Body, tc.msg)
		}
		lines := buf.lines(t)
		if len(lines) != 1 {
			t.Fatalf("%s: %d log lines, want 1: %v", tc.name, len(lines), lines)
		}
		if logged, _ := lines[0]["status"].(float64); int(logged) != rec.Code {
			t.Errorf("%s: logged status %v, sent %d", tc.name, lines[0]["status"], rec.Code)
		}
	}
}
