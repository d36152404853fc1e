package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// TestServeConcurrentWithRefresh hammers the server with concurrent
// queries while asynchronous maintenance (journaled edit batches patched
// into a new CSR, and epoch publishes) runs underneath. Every response must be internally consistent with exactly
// ONE published epoch: its answer set must equal the brute-force oracle of
// the graph published under the epoch the response claims — and the oracle
// graphs are built through the INDEPENDENT rebuild path (evolve.ApplyEdits
// chain), so this is also an end-to-end differential test of the
// Graph.Apply pipeline. A torn read across a swap (proximities from one snapshot
// screened against bounds of another) would almost surely fail the claimed
// epoch's oracle. Run under -race this also proves the swap and journal
// layers are data-race-free.
func TestServeConcurrentWithRefresh(t *testing.T) {
	g := testGraph(t, 41, 48)
	idx := testIndex(t, g, 6)
	// MaxInflight must cover every reader: this test asserts 200s, and on a
	// low-core machine (GOMAXPROCS small) the default 4×GOMAXPROCS limit
	// could legitimately 503 a burst of readers.
	s, err := New(g, idx, Config{CacheBytes: 32 << 10, MaxInflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		maintenanceRounds = 4
		editsPerRound     = 3
		readers           = 8
		requestsPerReader = 30
	)

	// Writer: enqueue async edit batches over HTTP and track, per epoch,
	// the graph the REBUILD path produces for the same batch chain. Epochs
	// are deterministic (all batches are valid), so batch i publishes
	// epoch i+2.
	epochGraphs := map[uint64]*graph.Graph{1: g}
	writerDone := make(chan struct{})
	var lastWatermark uint64
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(42))
		cur := g
		for round := 0; round < maintenanceRounds; round++ {
			var edits []evolve.Edit
			for len(edits) < editsPerRound {
				u := graph.NodeID(rng.Intn(cur.N()))
				if rng.Intn(2) == 0 && cur.OutDegree(u) > 1 {
					nbrs := cur.OutNeighbors(u)
					edits = append(edits, evolve.Edit{From: u, To: nbrs[rng.Intn(len(nbrs))], Remove: true})
				} else {
					v := graph.NodeID(rng.Intn(cur.N()))
					already := false
					for _, e := range edits {
						if e.From == u && e.To == v {
							already = true
						}
					}
					if v == u || cur.HasEdge(u, v) || already {
						continue
					}
					edits = append(edits, evolve.Edit{From: u, To: v})
				}
			}
			var wire []EditJSON
			for _, e := range edits {
				wire = append(wire, EditJSON{From: e.From, To: e.To, Weight: e.Weight, Remove: e.Remove})
			}
			body, _ := json.Marshal(EditsRequest{Edits: wire})
			resp, err := http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("maintenance round %d: %v", round, err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("maintenance round %d: status %d body %s", round, resp.StatusCode, raw)
				return
			}
			var er EditsResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Errorf("maintenance round %d: bad body %q", round, raw)
				return
			}
			lastWatermark = er.Watermark

			// Independent oracle chain through the rebuild path.
			g2, err := evolve.ApplyEdits(cur, edits, graph.DanglingSelfLoop)
			if err != nil {
				t.Errorf("oracle rebuild round %d: %v", round, err)
				return
			}
			cur = g2
			epochGraphs[uint64(round)+2] = g2
		}
	}()

	// Readers: fire queries the whole time, recording each response.
	type sample struct {
		q       graph.NodeID
		k       int
		epoch   uint64
		results []graph.NodeID
	}
	var (
		sampleMu sync.Mutex
		samples  []sample
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < requestsPerReader; i++ {
				q, k := rng.Intn(g.N()), 1+rng.Intn(6)
				resp, err := http.Get(fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d", ts.URL, q, k))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("q=%d k=%d: status %d body %s", q, k, resp.StatusCode, body)
					continue
				}
				var qr QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Errorf("q=%d k=%d: bad body %q: %v", q, k, body, err)
					continue
				}
				if hdr := resp.Header.Get("X-Epoch"); hdr != strconv.FormatUint(qr.Epoch, 10) {
					t.Errorf("q=%d k=%d: X-Epoch header %s disagrees with body epoch %d", q, k, hdr, qr.Epoch)
				}
				if qr.Count != len(qr.Results) {
					t.Errorf("q=%d k=%d: count %d but %d results", q, k, qr.Count, len(qr.Results))
				}
				sampleMu.Lock()
				samples = append(samples, sample{graph.NodeID(q), k, qr.Epoch, qr.Results})
				sampleMu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	<-writerDone

	// Drain the journal before verifying.
	deadline := time.Now().Add(30 * time.Second)
	for s.AppliedWatermark() < lastWatermark {
		if time.Now().After(deadline) {
			t.Fatalf("journal never drained: applied %d of %d", s.AppliedWatermark(), lastWatermark)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.MaintErrors != 0 {
		t.Fatalf("maintenance errors during the run: %+v", st)
	}

	// Verify every sampled response against the oracle of its CLAIMED
	// epoch. One exact proximity matrix per epoch answers all samples.
	oracles := map[uint64][][]float64{}
	for epoch, eg := range epochGraphs {
		cols, err := rwr.ProximityMatrix(eg, rwr.DefaultParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		oracles[epoch] = cols
	}
	checked := 0
	for _, sm := range samples {
		cols, ok := oracles[sm.epoch]
		if !ok {
			t.Fatalf("response claims epoch %d, which was never published", sm.epoch)
		}
		var want []graph.NodeID
		for u := range cols {
			if cols[u][sm.q] >= vecmath.KthLargest(cols[u], sm.k) {
				want = append(want, graph.NodeID(u))
			}
		}
		if !sameNodes(sm.results, want) {
			t.Errorf("q=%d k=%d epoch=%d: served %v, oracle %v", sm.q, sm.k, sm.epoch, sm.results, want)
		}
		checked++
	}
	if checked != readers*requestsPerReader {
		t.Errorf("verified %d/%d responses", checked, readers*requestsPerReader)
	}
}
