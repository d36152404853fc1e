package hub

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

func toyGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(6, [][2]graph.NodeID{
		{0, 1}, {0, 3}, {1, 0}, {1, 2}, {2, 1}, {2, 2},
		{3, 0}, {3, 1}, {3, 4}, {4, 0}, {4, 1}, {4, 4}, {5, 1}, {5, 5},
	}, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		panic(err)
	}
	return g
}

func TestSelectByDegree(t *testing.T) {
	g := toyGraph(t)
	hubs := SelectByDegree(g, 1)
	// Node 1 has the highest in-degree (5); the top out-degree is a tie
	// between nodes 3 and 4 (3 each), resolved to the smaller id 3.
	if len(hubs) != 2 || hubs[0] != 1 || hubs[1] != 3 {
		t.Errorf("hubs = %v, want [1 3]", hubs)
	}
	// Union semantics: overlapping in/out tops are not duplicated.
	all := SelectByDegree(g, 6)
	if len(all) != 6 {
		t.Errorf("B=n should select all nodes once: %v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Errorf("hub list not sorted: %v", all)
		}
	}
}

func buildOpts(omega float64) BuildOptions {
	return BuildOptions{Omega: omega, RWR: rwr.DefaultParams(), TopK: 3, Workers: 2}
}

func TestBuildMatrixUnrounded(t *testing.T) {
	g := toyGraph(t)
	m, err := Build(g, []graph.NodeID{0, 1}, buildOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsHub(0) || !m.IsHub(1) || m.IsHub(2) {
		t.Error("hub membership wrong")
	}
	if m.NumHubs() != 2 {
		t.Errorf("NumHubs = %d", m.NumHubs())
	}
	// Scatter must reproduce the exact proximity vector, each entry stored
	// as float32 rounded toward zero; what that takes off is the dropped
	// mass, ω = 0 dropping no entry.
	p := rwr.DefaultParams()
	for _, h := range []graph.NodeID{0, 1} {
		exact, err := rwr.ProximityVector(g, h, p)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, g.N())
		m.ScatterHub(dst, h, 1)
		var lost float64
		for v := range dst {
			if want := float64(vecmath.RoundDown32(exact.Vector[v])); dst[v] != want {
				t.Errorf("hub %d entry %d = %g, want %g rounded toward zero to %g", h, v, dst[v], exact.Vector[v], want)
			}
			lost += exact.Vector[v] - dst[v]
		}
		if d := m.DroppedMass(h); d <= 0 || math.Abs(d-lost) > 1e-15 {
			t.Errorf("ω = 0 build dropped mass %g, rounding to float32 took %g", d, lost)
		}
		// ExactTopK matches a direct top-k of the exact vector.
		want := vecmath.TopKValues(exact.Vector, 3)
		got := m.ExactTopK(h)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12 {
				t.Errorf("hub %d ExactTopK[%d] = %g, want %g", h, i, got[i], want[i])
			}
		}
	}
}

func TestBuildMatrixRounded(t *testing.T) {
	// A 400-node graph where typical proximities (≈1/n) fall below ω, so
	// rounding drops most entries and the sparse layout pays off.
	g := randomGraph(11, 400)
	omega := 5e-3
	m, err := Build(g, SelectByDegree(g, 3), buildOpts(omega))
	if err != nil {
		t.Fatal(err)
	}
	if m.Omega() != omega {
		t.Errorf("Omega = %g", m.Omega())
	}
	p := rwr.DefaultParams()
	for _, h := range m.Hubs() {
		exact, err := rwr.ProximityVector(g, h, p)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, g.N())
		m.ScatterHub(dst, h, 1)
		var dropped float64
		for v := range dst {
			// Kept entries are the exact ones rounded toward zero to
			// float32, never inflated; the rest are zero.
			if dst[v] != 0 && dst[v] != float64(vecmath.RoundDown32(exact.Vector[v])) {
				t.Errorf("hub %d entry %d altered: %g vs %g", h, v, dst[v], exact.Vector[v])
			}
			dropped += exact.Vector[v] - dst[v]
		}
		if math.Abs(dropped-m.DroppedMass(h)) > 1e-9 {
			t.Errorf("hub %d DroppedMass = %g, recomputed %g", h, m.DroppedMass(h), dropped)
		}
		// Rounding must shrink storage on this graph.
		if m.NNZ() >= m.NumHubs()*g.N() {
			t.Error("rounding did not reduce NNZ")
		}
	}
	if m.Bytes() >= m.UnroundedBytes() {
		t.Errorf("rounded bytes %d not below unrounded %d", m.Bytes(), m.UnroundedBytes())
	}
}

func TestBuildValidation(t *testing.T) {
	g := toyGraph(t)
	if _, err := Build(g, []graph.NodeID{1, 0}, buildOpts(0)); err == nil {
		t.Error("want sorted-hubs error")
	}
	if _, err := Build(g, []graph.NodeID{99}, buildOpts(0)); err == nil {
		t.Error("want range error")
	}
	bad := buildOpts(0)
	bad.Omega = -1
	if _, err := Build(g, []graph.NodeID{0}, bad); err == nil {
		t.Error("want omega error")
	}
	bad2 := buildOpts(0)
	bad2.TopK = 0
	if _, err := Build(g, []graph.NodeID{0}, bad2); err == nil {
		t.Error("want TopK error")
	}
}

func TestScatterNonHubPanics(t *testing.T) {
	g := toyGraph(t)
	m, err := Build(g, []graph.NodeID{0}, buildOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for non-hub scatter")
		}
	}()
	m.ScatterHub(make([]float64, g.N()), 5, 1)
}

func TestPredictHubBytes(t *testing.T) {
	// Larger ω ⇒ smaller prediction; more hubs ⇒ larger prediction.
	a := PredictHubBytes(100000, 100, 1e-6, 0.76)
	b := PredictHubBytes(100000, 100, 1e-4, 0.76)
	if a <= b {
		t.Errorf("prediction not decreasing in omega: %d vs %d", a, b)
	}
	c := PredictHubBytes(100000, 200, 1e-6, 0.76)
	if c <= a {
		t.Errorf("prediction not increasing in hubs: %d vs %d", c, a)
	}
	// Degenerate parameters fall back to dense accounting.
	d := PredictHubBytes(1000, 10, 0, 0.76)
	if d != 1000*10*12 {
		t.Errorf("degenerate prediction = %d", d)
	}
	// Per-hub entries never exceed n.
	e := PredictHubBytes(100, 1, 1e-12, 0.76)
	if e > 100*12 {
		t.Errorf("per-hub cap violated: %d", e)
	}
}

func TestPredictIndexBytes(t *testing.T) {
	got := PredictIndexBytes(1000, 200, 0, 1e-6, 0.76)
	if got != 1000*200*8 {
		t.Errorf("K·n term wrong with zero hubs: %d", got)
	}
}

func TestRoundingErrorBound(t *testing.T) {
	// Monotone increasing in ω; zero at ω = 0; within [0,1].
	prev := 0.0
	for _, omega := range []float64{0, 1e-8, 1e-6, 1e-4} {
		b := RoundingErrorBound(10000, omega, 0.76)
		if b < prev-1e-12 {
			t.Errorf("bound not monotone at ω=%g: %g < %g", omega, b, prev)
		}
		if b < 0 || b > 1 {
			t.Errorf("bound out of range: %g", b)
		}
		prev = b
	}
	if RoundingErrorBound(0, 1e-6, 0.76) != 0 {
		t.Error("empty graph should bound 0")
	}
	if RoundingErrorBound(100, 1e-6, 1.5) != 1 {
		t.Error("invalid beta should return trivial bound")
	}
}

func TestRoundedMatrixDropBoundedByProposition3(t *testing.T) {
	// The realized dropped mass must not wildly exceed the Prop. 3 bound
	// computed at the graph's fitted exponent; the paper observes the
	// real error to be far below the bound. We check the realized drop is
	// below the bound with the paper's β when the bound is informative.
	g := randomGraph(23, 150)
	omega := 1e-4
	m, err := Build(g, SelectByDegree(g, 3), buildOpts(omega))
	if err != nil {
		t.Fatal(err)
	}
	bound := RoundingErrorBound(g.N(), omega, 0.76)
	for _, h := range m.Hubs() {
		if m.DroppedMass(h) > bound+0.05 {
			t.Errorf("hub %d dropped %g, Prop.3 bound %g", h, m.DroppedMass(h), bound)
		}
	}
}
