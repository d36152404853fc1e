package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/partition"
)

// fanoutFixture spins up P shard daemons over slices of one index plus a
// coordinator in front of them, and returns everything needed to compare
// against the unsharded oracle.
type fanoutFixture struct {
	g        *graph.Graph
	idx      *lbindex.Index
	shards   []*Server
	shardSrv []*httptest.Server
	fan      *Fanout
	fanSrv   *httptest.Server
}

// newFanoutFixture serves a 220-node graph from p shards cut at the given
// bounds, or balanced when bounds is nil.
func newFanoutFixture(t *testing.T, p int, bounds []int32) *fanoutFixture {
	t.Helper()
	g, err := gen.WebGraph(220, 13)
	if err != nil {
		t.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 20
	opts.HubBudget = 6
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
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

// TestFanoutMatchesSingleEngine: the HTTP transport's oracle check across
// P ∈ {1, 2, 4}, over near-equal cuts and a balanced one.
func TestFanoutMatchesSingleEngine(t *testing.T) {
	for _, tc := range []struct {
		p        int
		strategy string
		bounds   []int32
	}{{1, "range", []int32{0, 220}}, {2, "range", []int32{0, 110, 220}}, {4, "balanced", nil}} {
		fx := newFanoutFixture(t, tc.p, tc.bounds)
		eng, err := core.NewEngine(fx.g, fx.idx, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{0, 3, 77, 219} {
			for _, k := range []int{1, 10} {
				want, _, err := eng.Query(graph.NodeID(q), k)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := fx.query(t, q, k)
				if len(got) != len(want) {
					t.Fatalf("P=%d %s q=%d k=%d: got %v want %v", tc.p, tc.strategy, q, k, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("P=%d %s q=%d k=%d: got %v want %v", tc.p, tc.strategy, q, k, got, want)
					}
				}
			}
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
	}{{1, "range", []int32{0, 220}}, {3, "balanced", nil}} {
		fx := newFanoutFixture(t, tc.p, tc.bounds)
		eng, err := core.NewEngine(fx.g, fx.idx, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{0, 42, 219} {
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
			want, _, err := eng.Query(graph.NodeID(q), 10)
			if err != nil {
				t.Fatal(err)
			}
			inExact := map[graph.NodeID]bool{}
			for _, u := range want {
				inExact[u] = true
			}
			cover := map[graph.NodeID]bool{}
			for _, u := range ar.Results {
				if !inExact[u] {
					t.Fatalf("P=%d %s q=%d: merged guaranteed %d not in exact %v", tc.p, tc.strategy, q, u, want)
				}
				cover[u] = true
			}
			for _, u := range ar.Maybe {
				cover[u] = true
			}
			for _, u := range want {
				if !cover[u] {
					t.Fatalf("P=%d %s q=%d: exact node %d uncovered by merged answer %s", tc.p, tc.strategy, q, u, body)
				}
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

// TestFanoutEditsBroadcast: one POST to the coordinator must land the same
// semantic change on every shard, with each shard re-indexing only its own
// rows; post-edit answers must match a full server given the same batch.
func TestFanoutEditsBroadcast(t *testing.T) {
	fx := newFanoutFixture(t, 2, []int32{0, 110, 220})

	// The unsharded oracle server receives the identical batch.
	oracle, err := New(fx.g, fx.idx.Clone(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	edits := []evolve.Edit{{From: 5, To: 140}, {From: 77, To: 3}}
	if _, _, err := oracle.ApplyEdits(edits, 0); err != nil {
		t.Fatal(err)
	}

	req := EditsRequest{Theta: 0, Wait: true}
	for _, e := range edits {
		req.Edits = append(req.Edits, EditJSON{From: e.From, To: e.To})
	}
	body, _ := json.Marshal(req)
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
	// Each shard refreshes only its owned origins: together they must do
	// ≈ one full refresh's work, and no single shard all of it (the edit
	// touches origins on both halves of a 220-node range split).
	oracleStats := oracle.Stats()
	if oracleStats.Epoch != 2 {
		t.Fatalf("oracle epoch %d", oracleStats.Epoch)
	}
	for i, sh := range out.Shards {
		if sh.Affected == affectedTotal && affectedTotal > 1 {
			t.Errorf("shard %d refreshed every affected origin (%d); routing to owner failed", i, sh.Affected)
		}
	}

	snap := oracle.Store().Current()
	for _, q := range []int{5, 77, 140} {
		want, _, err := snap.View.Query(graph.NodeID(q), 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := fx.query(t, q, 10)
		if len(got) != len(want) {
			t.Fatalf("post-edit q=%d: got %v want %v", q, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("post-edit q=%d: got %v want %v", q, got, want)
			}
		}
	}
}

// TestFanoutErrorPaths: parameter errors relay the shard's 4xx; a dead
// shard turns queries into 502 and /healthz into 503.
func TestFanoutErrorPaths(t *testing.T) {
	fx := newFanoutFixture(t, 2, []int32{0, 110, 220})

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

// TestFanoutErrorStatusLogged: the coordinator's request log line carries the
// status it sent — a shard's relayed 4xx (out-of-range q), and the 502 of a
// shard's approx body that does not parse.
func TestFanoutErrorStatusLogged(t *testing.T) {
	fx := newFanoutFixture(t, 2, []int32{0, 110, 220})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	t.Cleanup(stub.Close)
	for _, tc := range []struct {
		name   string
		shards []string
		params string
	}{
		{"out-of-range q", []string{fx.shardSrv[0].URL, fx.shardSrv[1].URL}, "q=99999&k=5"},
		{"malformed approx body", []string{stub.URL}, "q=1&k=5&mode=approx"},
	} {
		buf, logger := newTestLogger()
		fan, err := NewFanout(FanoutConfig{Shards: tc.shards, Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		fan.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/reverse-topk?"+tc.params, nil))
		if rec.Code < 400 {
			t.Fatalf("%s: status %d body %s, want an error", tc.name, rec.Code, rec.Body)
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
