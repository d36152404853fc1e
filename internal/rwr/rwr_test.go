package rwr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// toyGraph returns the 6-node digraph used as the running example
// throughout the tests (same node count as the paper's Figure 1 toy).
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

// randomGraph builds a random strongly-usable digraph for property tests.
func randomGraph(rng *rand.Rand, n int, weighted bool) *graph.Graph {
	b := graph.NewBuilder(n)
	m := n + rng.Intn(4*n)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if weighted {
			b.AddWeightedEdge(u, v, 1+rng.Float64()*4)
		} else {
			b.AddEdge(u, v)
		}
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		panic(err)
	}
	return g
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Alpha: 0, Eps: 1e-10, MaxIters: 10},
		{Alpha: 1, Eps: 1e-10, MaxIters: 10},
		{Alpha: 0.15, Eps: 0, MaxIters: 10},
		{Alpha: 0.15, Eps: 1e-10, MaxIters: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestPredictedIters(t *testing.T) {
	p := DefaultParams()
	got := p.PredictedIters()
	// Theorem 2(c): i > log(ε/α)/log(1−α) ≈ log(1e-10/0.15)/log(0.85) ≈ 130.
	want := math.Log(p.Eps/p.Alpha) / math.Log(1-p.Alpha)
	if math.Abs(float64(got)-want) > 2 {
		t.Errorf("PredictedIters = %d, analytic %g", got, want)
	}
}

func TestMulTransitionStochastic(t *testing.T) {
	// A is column-stochastic, so ‖A·x‖1 = ‖x‖1 for non-negative x, under
	// every dangling policy and for weighted graphs: the push kernel at width
	// 1 conserves mass.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(30), rng.Intn(2) == 0)
		x := make([]float64, g.N())
		for i := range x {
			x[i] = rng.Float64()
		}
		dst := make([]float64, g.N())
		spmmPush(g, x, dst, 1, nil)
		return math.Abs(vecmath.L1Norm(dst)-vecmath.L1Norm(x)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMulTransitionTIsTranspose(t *testing.T) {
	// Property: ⟨A·x, y⟩ = ⟨x, Aᵀ·y⟩ for random vectors on random graphs —
	// the forward push and the PMPN gather are one operator and its
	// transpose.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(25), rng.Intn(2) == 0)
		n := g.N()
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		ax := make([]float64, n)
		aty := make([]float64, n)
		spmmPush(g, x, ax, 1, nil)
		MulTransitionTRange(g, y, aty, 0, n)
		var lhs, rhs float64
		for i := 0; i < n; i++ {
			lhs += ax[i] * y[i]
			rhs += x[i] * aty[i]
		}
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestProximityVectorBasics(t *testing.T) {
	g := toyGraph(t)
	p := DefaultParams()
	res, err := ProximityVector(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	pu := res.Vector
	if math.Abs(vecmath.L1Norm(pu)-1) > 1e-8 {
		t.Errorf("‖p_u‖1 = %g, want 1", vecmath.L1Norm(pu))
	}
	for v, val := range pu {
		if val < 0 {
			t.Errorf("negative proximity p_0(%d) = %g", v, val)
		}
	}
	// The origin retains at least the restart mass.
	if pu[0] < p.Alpha {
		t.Errorf("p_0(0) = %g < alpha %g", pu[0], p.Alpha)
	}
	if res.Iterations <= 1 {
		t.Errorf("suspiciously fast convergence: %d iterations", res.Iterations)
	}
}

func TestProximityVectorSolvesLinearSystem(t *testing.T) {
	// p_u must satisfy p_u = (1−α)·A·p_u + α·e_u exactly (up to ε).
	g := toyGraph(t)
	p := DefaultParams()
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		res, err := ProximityVector(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		ap := make([]float64, g.N())
		spmmPush(g, res.Vector, ap, 1, nil)
		for v := range ap {
			want := (1-p.Alpha)*ap[v] + p.Alpha*boolToF(int(u) == v)
			if math.Abs(res.Vector[v]-want) > 1e-7 {
				t.Fatalf("fixed point violated at p_%d(%d): %g vs %g", u, v, res.Vector[v], want)
			}
		}
	}
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestProximityToMatchesMatrixRow(t *testing.T) {
	// Theorem 2: PMPN converges to row q of P. Cross-check against the
	// column-by-column matrix on random graphs, weighted and unweighted.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(20), rng.Intn(2) == 0)
		p := Params{Alpha: 0.15, Eps: 1e-12, MaxIters: 5000}
		cols, err := ProximityMatrix(g, p, 2)
		if err != nil {
			return false
		}
		q := graph.NodeID(rng.Intn(g.N()))
		res, err := ProximityTo(g, q, p)
		if err != nil {
			return false
		}
		row := MatrixRow(cols, q)
		return vecmath.MaxAbsDiff(res.Vector, row) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// residualRatios runs the PMPN iteration on g with query q and returns the
// average ratio of successive L1 residuals after burn-in.
func residualRatios(g *graph.Graph, q graph.NodeID, alpha float64, iters int) float64 {
	n := g.N()
	x := make([]float64, n)
	next := make([]float64, n)
	x[q] = 1
	var prev float64
	var sum float64
	var count int
	for i := 0; i < iters; i++ {
		MulTransitionTRange(g, x, next, 0, n)
		vecmath.Scale(next, 1-alpha)
		next[q] += alpha
		res := vecmath.L1Diff(x, next)
		x, next = next, x
		if i > 10 && prev > 1e-14 {
			sum += res / prev
			count++
		}
		prev = res
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

func TestProximityToConvergenceRate(t *testing.T) {
	alpha := 0.15
	// Theorem 2(b) gives (1−α) as the convergence rate; on a general
	// graph cancellation can only make the observed ratio smaller.
	if r := residualRatios(toyGraph(t), 2, alpha, 60); r > 1-alpha+1e-9 {
		t.Errorf("toy graph residual ratio %g exceeds theorem bound %g", r, 1-alpha)
	}
	// On a directed cycle, Aᵀ is a permutation and the L1 residual decays
	// by exactly (1−α) per step, attaining the bound.
	b := graph.NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%8))
	}
	cyc, _, err := b.Build(graph.DanglingReject)
	if err != nil {
		t.Fatal(err)
	}
	if r := residualRatios(cyc, 0, alpha, 60); math.Abs(r-(1-alpha)) > 1e-9 {
		t.Errorf("cycle residual ratio = %g, want exactly %g", r, 1-alpha)
	}
}

func TestProximityToArbitraryInit(t *testing.T) {
	// Theorem 2(a): the iteration converges to the same fixed point from
	// any initialization. Run it manually from a random start and compare
	// with ProximityTo's answer.
	g := toyGraph(t)
	p := DefaultParams()
	q := graph.NodeID(1)
	want, err := ProximityTo(g, q, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, g.N())
	for i := range x {
		x[i] = rng.Float64() * 3 // deliberately not a distribution
	}
	next := make([]float64, g.N())
	for i := 0; i < 400; i++ {
		MulTransitionTRange(g, x, next, 0, g.N())
		vecmath.Scale(next, 1-p.Alpha)
		next[q] += p.Alpha
		x, next = next, x
	}
	if vecmath.MaxAbsDiff(x, want.Vector) > 1e-9 {
		t.Errorf("different fixed point from random init: max diff %g", vecmath.MaxAbsDiff(x, want.Vector))
	}
}

func TestProximityMatrixColumnsSumToOne(t *testing.T) {
	g := toyGraph(t)
	cols, err := ProximityMatrix(g, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for u, col := range cols {
		if math.Abs(vecmath.L1Norm(col)-1) > 1e-8 {
			t.Errorf("column %d sums to %g", u, vecmath.L1Norm(col))
		}
	}
}

func TestProximityMatrixTooLarge(t *testing.T) {
	b := graph.NewBuilder(MaxMatrixNodes + 1)
	b.AddEdge(0, 1)
	b.AddEdge(graph.NodeID(MaxMatrixNodes), 0)
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProximityMatrix(g, DefaultParams(), 1); err == nil {
		t.Fatal("want size-limit error")
	}
}

func TestOutOfRangeNodes(t *testing.T) {
	g := toyGraph(t)
	p := DefaultParams()
	if _, err := ProximityVector(g, -1, p); err == nil {
		t.Error("want range error")
	}
	if _, err := ProximityVector(g, 6, p); err == nil {
		t.Error("want range error")
	}
	if _, err := ProximityTo(g, 99, p); err == nil {
		t.Error("want range error")
	}
}

func TestMulTransitionStochasticAllPolicies(t *testing.T) {
	// Column stochasticity must hold under every dangling policy.
	for _, policy := range []graph.DanglingPolicy{graph.DanglingSelfLoop, graph.DanglingSharedSink, graph.DanglingPrune} {
		rng := rand.New(rand.NewSource(9))
		b := graph.NewBuilder(30)
		for i := 0; i < 60; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(30)), graph.NodeID(rng.Intn(30)))
		}
		g, _, err := b.Build(policy)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() == 0 {
			continue
		}
		x := make([]float64, g.N())
		for i := range x {
			x[i] = rng.Float64()
		}
		dst := make([]float64, g.N())
		spmmPush(g, x, dst, 1, nil)
		if math.Abs(vecmath.L1Norm(dst)-vecmath.L1Norm(x)) > 1e-9 {
			t.Errorf("%v: mass not conserved: %g vs %g", policy, vecmath.L1Norm(dst), vecmath.L1Norm(x))
		}
	}
}

func TestWeightedProximityPrefersHeavyEdge(t *testing.T) {
	// Node 0 links to 1 (weight 9) and 2 (weight 1): proximity to 1 must
	// far exceed proximity to 2.
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 9)
	b.AddWeightedEdge(0, 2, 1)
	b.AddWeightedEdge(1, 0, 1)
	b.AddWeightedEdge(2, 0, 1)
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ProximityVector(g, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Vector[1] < 5*res.Vector[2] {
		t.Errorf("weighted transition ignored: p(1)=%g p(2)=%g", res.Vector[1], res.Vector[2])
	}
}
