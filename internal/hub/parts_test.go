package hub

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

func TestPartsFromPartsRoundTrip(t *testing.T) {
	g := toyGraph(t)
	m, err := Build(g, []graph.NodeID{0, 1}, buildOpts(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	n, hubs, cols, topK, dropped, omega := m.Parts()
	m2, err := FromParts(n, hubs, cols, topK, dropped, omega)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumHubs() != m.NumHubs() || m2.Omega() != m.Omega() {
		t.Error("round trip changed shape")
	}
	for _, h := range hubs {
		a := make([]float64, n)
		b := make([]float64, n)
		m.ScatterHub(a, h, 1)
		m2.ScatterHub(b, h, 1)
		if vecmath.MaxAbsDiff(a, b) != 0 {
			t.Errorf("hub %d column changed", h)
		}
		if m.DroppedMass(h) != m2.DroppedMass(h) {
			t.Errorf("hub %d dropped mass changed", h)
		}
	}
}

func TestFromPartsValidation(t *testing.T) {
	g := toyGraph(t)
	m, err := Build(g, []graph.NodeID{0, 1}, buildOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	n, hubs, cols, topK, dropped, omega := m.Parts()

	if _, err := FromParts(n, hubs[:1], cols, topK, dropped, omega); err == nil {
		t.Error("want length mismatch error")
	}
	badHubs := []graph.NodeID{0, 99}
	if _, err := FromParts(n, badHubs, cols, topK, dropped, omega); err == nil {
		t.Error("want range error")
	}
	unsorted := []graph.NodeID{1, 0}
	if _, err := FromParts(n, unsorted, cols, topK, dropped, omega); err == nil {
		t.Error("want ordering error")
	}
	badCols := []vecmath.Sparse32{{Idx: []int32{2, 1}, Val: []float32{1, 1}}, cols[1]}
	if _, err := FromParts(n, hubs, badCols, topK, dropped, omega); err == nil {
		t.Error("want column validation error")
	}
}

func TestScatterViaInterface(t *testing.T) {
	// Exercise the bca.HubProximities view of the matrix (ScatterHub and
	// NumHubs as used by the BCA engine).
	g := toyGraph(t)
	m, err := Build(g, []graph.NodeID{1}, buildOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumHubs() != 1 {
		t.Fatalf("NumHubs = %d", m.NumHubs())
	}
	dst := make([]float64, g.N())
	m.ScatterHub(dst, 1, 0.5)
	var sum float64
	for _, v := range dst {
		sum += v
	}
	// ‖p_h‖₁ = 1, so scattering 0.5·p_h deposits mass 0.5.
	if sum < 0.499 || sum > 0.501 {
		t.Errorf("scattered mass %g, want 0.5", sum)
	}
}
