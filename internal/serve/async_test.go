package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/oracle"
)

func postEdits(t *testing.T, url string, req EditsRequest) (*http.Response, EditsResponse, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var er EditsResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("bad edits response %q: %v", raw, err)
		}
	}
	return resp, er, raw
}

func fetchStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, body := get(t, url+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitWatermark(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.AppliedWatermark() < want {
		if time.Now().After(deadline) {
			t.Fatalf("watermark %d not applied within deadline (at %d)", want, s.AppliedWatermark())
		}
		time.Sleep(time.Millisecond)
	}
}

// findInserts returns `count` distinct non-edges of v.
func findInserts(t *testing.T, v *graph.Graph, count int) []EditJSON {
	t.Helper()
	var edits []EditJSON
	for u := graph.NodeID(0); len(edits) < count && int(u) < v.N(); u++ {
		for w := graph.NodeID(0); len(edits) < count && int(w) < v.N(); w++ {
			if u != w && !v.HasEdge(u, w) {
				edits = append(edits, EditJSON{From: u, To: w})
			}
		}
	}
	if len(edits) < count {
		t.Fatalf("graph too dense to find %d non-edges", count)
	}
	return edits
}

// TestServeAsyncEditsDontBlockQueries holds a maintenance pass open at the
// gate and checks that (a) the POST came back 202 with a watermark without
// waiting, (b) queries keep being served from the pre-edit epoch while
// maintenance is in flight, and (c) after release the new epoch's answers
// match the edited graph's oracle.
func TestServeAsyncEditsDontBlockQueries(t *testing.T) {
	g, idx := fixture(t)
	s, err := New(g, idx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	gateEntered := make(chan struct{}, 4)
	gateRelease := make(chan struct{})
	release := sync.OnceFunc(func() { close(gateRelease) })
	s.testMaintGate = func() {
		gateEntered <- struct{}{}
		<-gateRelease
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Cleanups run last-in first-out: a failure while the gate holds must
	// open it before the listener's and the server's Close wait on it.
	t.Cleanup(release)

	edits := findInserts(t, g, 2)
	resp, er, raw := postEdits(t, ts.URL, EditsRequest{Edits: edits})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async edits: status %d body %s, want 202", resp.StatusCode, raw)
	}
	if er.Watermark != 1 || er.Epoch != 0 {
		t.Fatalf("async response %+v, want watermark 1 and no epoch", er)
	}
	<-gateEntered // maintenance now holding the batch open

	// Queries flow against epoch 1 while the batch is mid-flight.
	tab := oracle.Family(t, "web")
	for _, q := range []int{0, 9, 33} {
		r, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=4", ts.URL, q))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("query during maintenance: %d %s", r.StatusCode, body)
		}
		qr := decodeQuery(t, body)
		if qr.Epoch != 1 {
			t.Fatalf("query during maintenance served epoch %d, want 1", qr.Epoch)
		}
		if want := tab.Want(graph.NodeID(q), 4); !slices.Equal(qr.Results, want) {
			t.Fatalf("q=%d mid-maintenance answer %v, oracle %v", q, qr.Results, want)
		}
	}
	if st := fetchStats(t, ts.URL); st.PendingEdits != 1 || st.EnqueuedWatermark != 1 || st.AppliedWatermark != 0 {
		t.Fatalf("mid-flight stats %+v, want pending=1", st)
	}

	release()
	waitWatermark(t, s, 1)

	// Post-apply: answers match the edited graph's oracle at epoch 2.
	var evEdits []evolve.Edit
	for _, e := range edits {
		evEdits = append(evEdits, evolve.Edit{From: e.From, To: e.To})
	}
	g2, err := evolve.ApplyEdits(g, evEdits, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	tab2 := oracle.Of(t, g2, idx.K())
	for _, q := range []int{0, 9, 33} {
		r, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=4", ts.URL, q))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("post-apply query: %d %s", r.StatusCode, body)
		}
		qr := decodeQuery(t, body)
		if qr.Epoch != 2 {
			t.Fatalf("post-apply epoch %d, want 2", qr.Epoch)
		}
		if want := tab2.Want(graph.NodeID(q), 4); !slices.Equal(qr.Results, want) {
			t.Fatalf("q=%d post-apply answer %v, oracle %v", q, qr.Results, want)
		}
	}
	if st := fetchStats(t, ts.URL); st.PendingEdits != 0 || st.AppliedWatermark != 1 || st.LastAffectedOrigins == 0 {
		t.Fatalf("post-apply stats %+v", st)
	}
}

// TestServeAsyncInvalidBatch: an invalid batch posted asynchronously is
// still accepted (202), then surfaces through the maintenance error
// counters without publishing an epoch.
func TestServeAsyncInvalidBatch(t *testing.T) {
	g, idx := fixture(t)
	s, ts := newTestServer(t, g, idx, Config{})

	var u, v graph.NodeID
outer:
	for u = 0; int(u) < g.N(); u++ {
		for v = 0; int(v) < g.N(); v++ {
			if u != v && !g.HasEdge(u, v) {
				break outer
			}
		}
	}
	resp, er, raw := postEdits(t, ts.URL, EditsRequest{Edits: []EditJSON{{From: u, To: v, Remove: true}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async invalid batch: status %d body %s, want 202", resp.StatusCode, raw)
	}
	waitWatermark(t, s, er.Watermark)
	st := fetchStats(t, ts.URL)
	if st.MaintErrors != 1 || st.LastMaintError == "" {
		t.Fatalf("stats after failed batch: %+v, want maint_errors=1 with message", st)
	}
	if st.Epoch != 1 || st.EpochSwaps != 0 {
		t.Fatalf("failed batch published an epoch: %+v", st)
	}
}

// TestServeNodeGrowth posts an edit batch that grows the graph and checks
// the index is padded with fresh origins: the new epoch serves queries for
// the new nodes with oracle-exact answers.
func TestServeNodeGrowth(t *testing.T) {
	g, idx := fixture(t)
	s, ts := newTestServer(t, g, idx, Config{})

	n := graph.NodeID(g.N())
	evEdits := []evolve.Edit{
		{From: 4, To: n},     // edge into new node n
		{From: n, To: 9},     // new node n links back
		{From: n + 1, To: 2}, // second new node
	}
	var edits []EditJSON
	for _, e := range evEdits {
		edits = append(edits, EditJSON{From: e.From, To: e.To})
	}
	resp, er, raw := postEdits(t, ts.URL, EditsRequest{Edits: edits, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("growing edits: status %d body %s", resp.StatusCode, raw)
	}
	if er.Epoch != 2 {
		t.Fatalf("growing edits published epoch %d, want 2", er.Epoch)
	}

	g2, err := evolve.ApplyEdits(g, evEdits, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Store().Current().View.N(); got != g2.N() {
		t.Fatalf("snapshot has %d nodes, want %d", got, g2.N())
	}
	st := fetchStats(t, ts.URL)
	if st.Nodes != g2.N() || st.NodesGrown != int64(g2.N()-g.N()) {
		t.Fatalf("growth stats %+v, want nodes=%d grown=%d", st, g2.N(), g2.N()-g.N())
	}

	tab2 := oracle.Of(t, g2, idx.K())
	for _, q := range []int{int(n), int(n) + 1, 0, 4, 9} {
		r, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=4", ts.URL, q))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("q=%d on grown graph: %d %s", q, r.StatusCode, body)
		}
		qr := decodeQuery(t, body)
		if want := tab2.Want(graph.NodeID(q), 4); !slices.Equal(qr.Results, want) {
			t.Fatalf("q=%d grown-graph answer %v, oracle %v", q, qr.Results, want)
		}
	}

	// The index clone must still satisfy its invariants after padding.
	if err := s.Store().Current().View.Index().CheckInvariants(); err != nil {
		t.Fatalf("grown index: %v", err)
	}

	// Growth beyond the per-batch bound is rejected cleanly.
	resp, _, raw = postEdits(t, ts.URL, EditsRequest{
		Edits: []EditJSON{{From: 0, To: graph.NodeID(g2.N() + 1000)}},
		Wait:  true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized growth: status %d body %s, want 400", resp.StatusCode, raw)
	}
}
