package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestEditsRejectSubnormalWeights is the NaN-propagation regression test: an
// edit whose subnormal weight would produce a transition-column normalizer
// with an infinite reciprocal (and therefore NaN proximity scores) must be
// rejected at the API boundary with a 400, leaving the served epoch, the
// cache and every served score untouched — and a subsequent valid batch must
// still go through.
func TestEditsRejectSubnormalWeights(t *testing.T) {
	g, idx := fixture(t)
	s, ts := newTestServer(t, g, idx, Config{})

	// A non-edge to target with the poisoned insert.
	var eu, ev graph.NodeID = -1, -1
findNonEdge:
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			if u != v && g.EdgeWeight(u, v) == 0 {
				eu, ev = u, v
				break findNonEdge
			}
		}
	}
	if eu < 0 {
		t.Fatal("test graph is complete; cannot pick a non-edge")
	}

	// The subnormal batch bounces with a 400 before any watermark or
	// journal entry exists.
	body, _ := json.Marshal(EditsRequest{
		Edits: []EditJSON{{From: eu, To: ev, Weight: 1e-310}},
		Wait:  true,
	})
	resp, err := http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rejBody := make([]byte, 1024)
	nr, _ := resp.Body.Read(rejBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("subnormal edit accepted with status %d: %s", resp.StatusCode, rejBody[:nr])
	}
	if !strings.Contains(string(rejBody[:nr]), "below minimum") {
		t.Fatalf("rejection does not name the weight floor: %s", rejBody[:nr])
	}

	// ValidateEdits (shared by the CLI and the coordinator front end)
	// rejects the same batch directly.
	if err := ValidateEdits([]evolve.Edit{{From: eu, To: ev, Weight: 1e-310}}, 0); err == nil {
		t.Fatal("ValidateEdits accepted a subnormal weight")
	}

	// Nothing was published: same epoch, and the served graph's inverse
	// normalizers are all finite.
	snap := s.Store().Current()
	if snap.Epoch != 1 {
		t.Fatalf("epoch advanced to %d after a rejected batch", snap.Epoch)
	}
	gv := snap.View.Graph()
	for u := graph.NodeID(0); int(u) < gv.N(); u++ {
		if inv := 1 / gv.TotalOutWeight(u); math.IsNaN(inv) || math.IsInf(inv, 0) {
			t.Fatalf("node %d: non-finite inverse normalizer %g reached the served graph", u, inv)
		}
	}

	// Every served score path stays NaN-free: answers still match the
	// exact oracle for the unedited graph (a NaN anywhere in a proximity
	// column would scramble the top-k sets).
	exactRow(t, "GET /v1/reverse-topk after a rejected batch", oracle.Family(t, "web"), ts.URL, 1)

	// The guard is a floor, not a blanket rejection: a valid insert on the
	// same non-edge still applies and publishes a new epoch.
	body, _ = json.Marshal(EditsRequest{
		Edits: []EditJSON{{From: eu, To: ev, Weight: 1}},
		Wait:  true,
	})
	resp, err = http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er EditsResponse
	err = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || er.Epoch != 2 {
		t.Fatalf("valid follow-up batch: status %d, epoch %d (want 200, 2)", resp.StatusCode, er.Epoch)
	}
	g2, err := evolve.ApplyEdits(g, []evolve.Edit{{From: eu, To: ev, Weight: 1}}, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	exactRow(t, "GET /v1/reverse-topk after the valid batch", oracle.Of(t, g2, idx.K()), ts.URL, 2)
}
