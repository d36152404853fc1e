package bca

import (
	"math/rand"
	"testing"
	"testing/quick"

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

// exactHubs implements HubProximities with power-method-exact proximity
// vectors — the test double for the hub package.
type exactHubs struct {
	isHub map[graph.NodeID]bool
	cols  map[graph.NodeID][]float64
}

func newExactHubs(t testing.TB, g *graph.Graph, hubs []graph.NodeID) *exactHubs {
	t.Helper()
	e := &exactHubs{isHub: map[graph.NodeID]bool{}, cols: map[graph.NodeID][]float64{}}
	p := rwr.DefaultParams()
	for _, h := range hubs {
		res, err := rwr.ProximityVector(g, h, p)
		if err != nil {
			t.Fatal(err)
		}
		e.isHub[h] = true
		e.cols[h] = res.Vector
	}
	return e
}

func (e *exactHubs) IsHub(v graph.NodeID) bool { return e.isHub[v] }
func (e *exactHubs) NumHubs() int              { return len(e.cols) }
func (e *exactHubs) ScatterHub(dst []float64, h graph.NodeID, scale float64) {
	vecmath.AddScaled(dst, scale, e.cols[h])
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Alpha: 0, Eta: 1e-4, Delta: 0.1, MaxIters: 5},
		{Alpha: 1.5, Eta: 1e-4, Delta: 0.1, MaxIters: 5},
		{Alpha: 0.15, Eta: 0, Delta: 0.1, MaxIters: 5},
		{Alpha: 0.15, Eta: 1e-4, Delta: -1, MaxIters: 5},
		{Alpha: 0.15, Eta: 1e-4, Delta: 0.1, MaxIters: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestRunConvergesToPowerMethod(t *testing.T) {
	// With δ→0 and no hubs, BCA's p^t must converge to the exact
	// proximity vector p_u.
	g := toyGraph(t)
	ws := NewWorkspace(g.N())
	cfg := Config{Alpha: 0.15, Eta: 1e-12, Delta: 1e-10, MaxIters: 100000}
	p := rwr.DefaultParams()
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		st, err := Run(g, u, NoHubs, cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		pt := MaterializePt(st, NoHubs, ws)
		exact, err := rwr.ProximityVector(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		if d := vecmath.MaxAbsDiff(pt, exact.Vector); d > 1e-8 {
			t.Errorf("node %d: BCA deviates from PM by %g", u, d)
		}
	}
}

func TestRunWithHubsConvergesToPowerMethod(t *testing.T) {
	g := toyGraph(t)
	hubs := newExactHubs(t, g, []graph.NodeID{0, 1})
	ws := NewWorkspace(g.N())
	cfg := Config{Alpha: 0.15, Eta: 1e-12, Delta: 1e-10, MaxIters: 100000}
	p := rwr.DefaultParams()
	for u := graph.NodeID(2); int(u) < g.N(); u++ {
		st, err := Run(g, u, hubs, cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		pt := vecmath.Clone(MaterializePt(st, hubs, ws))
		exact, err := rwr.ProximityVector(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		if d := vecmath.MaxAbsDiff(pt, exact.Vector); d > 1e-7 {
			t.Errorf("node %d: hub BCA deviates from PM by %g", u, d)
		}
	}
}

func TestInkConservationProperty(t *testing.T) {
	// ‖w‖₁+‖s‖₁+‖r‖₁ = 1 after every step, on random graphs, with and
	// without hubs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(25), rng.Intn(2) == 0)
		var hubs HubProximities = NoHubs
		if rng.Intn(2) == 0 {
			hs := []graph.NodeID{graph.NodeID(rng.Intn(g.N()))}
			hubs = newExactHubsQuiet(g, hs)
		}
		ws := NewWorkspace(g.N())
		u := graph.NodeID(rng.Intn(g.N()))
		st := Start(u, hubs)
		cfg := Config{Alpha: 0.15, Eta: 1e-5, Delta: 0, MaxIters: 50}
		for i := 0; i < 30; i++ {
			if st.CheckInvariant(1e-9) != nil {
				return false
			}
			if Step(g, st, hubs, cfg, ws) == 0 {
				break
			}
		}
		return st.CheckInvariant(1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func newExactHubsQuiet(g *graph.Graph, hubs []graph.NodeID) *exactHubs {
	e := &exactHubs{isHub: map[graph.NodeID]bool{}, cols: map[graph.NodeID][]float64{}}
	p := rwr.DefaultParams()
	for _, h := range hubs {
		res, err := rwr.ProximityVector(g, h, p)
		if err != nil {
			panic(err)
		}
		e.isHub[h] = true
		e.cols[h] = res.Vector
	}
	return e
}

func TestProposition1Monotonicity(t *testing.T) {
	// Every entry of p^t is non-decreasing in t and bounded by the exact
	// proximity (Prop. 1), so p^t is always an entrywise lower bound.
	g := toyGraph(t)
	ws := NewWorkspace(g.N())
	cfg := Config{Alpha: 0.15, Eta: 1e-9, Delta: 0, MaxIters: 500}
	p := rwr.DefaultParams()
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		exact, err := rwr.ProximityVector(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		st := Start(u, NoHubs)
		prev := make([]float64, g.N())
		for it := 0; it < 60; it++ {
			if Step(g, st, NoHubs, cfg, ws) == 0 {
				break
			}
			pt := MaterializePt(st, NoHubs, ws)
			for v := range pt {
				if pt[v] < prev[v]-1e-12 {
					t.Fatalf("node %d iter %d: p^t(%d) decreased %g -> %g", u, it, v, prev[v], pt[v])
				}
				if pt[v] > exact.Vector[v]+1e-9 {
					t.Fatalf("node %d iter %d: p^t(%d)=%g exceeds exact %g", u, it, v, pt[v], exact.Vector[v])
				}
			}
			copy(prev, pt)
		}
	}
}

func TestProposition2KthLowerBound(t *testing.T) {
	// p̂^t(k) ≤ pkmax for every k and t, on random graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(20), false)
		ws := NewWorkspace(g.N())
		u := graph.NodeID(rng.Intn(g.N()))
		exact, err := rwr.ProximityVector(g, u, rwr.DefaultParams())
		if err != nil {
			return false
		}
		cfg := Config{Alpha: 0.15, Eta: 1e-6, Delta: 0, MaxIters: 100}
		st := Start(u, NoHubs)
		for it := 0; it < 10; it++ {
			if Step(g, st, NoHubs, cfg, ws) == 0 {
				break
			}
			phat := TopK(st, NoHubs, ws, 5)
			for k := 1; k <= 5; k++ {
				if phat[k-1] > vecmath.KthLargest(exact.Vector, k)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStartAtHub(t *testing.T) {
	g := toyGraph(t)
	hubs := newExactHubs(t, g, []graph.NodeID{1})
	st := Start(1, hubs)
	if st.RNorm != 0 || st.S.NNZ() != 1 || st.S.Get(1) != 1 {
		t.Fatalf("hub start wrong: %+v", st)
	}
	// Materializing immediately yields the exact hub proximity vector.
	ws := NewWorkspace(g.N())
	pt := MaterializePt(st, hubs, ws)
	exact, _ := rwr.ProximityVector(g, 1, rwr.DefaultParams())
	if vecmath.MaxAbsDiff(pt, exact.Vector) > 1e-9 {
		t.Error("hub start does not materialize exact vector")
	}
}

func TestStepNoProgressBelowEta(t *testing.T) {
	g := toyGraph(t)
	ws := NewWorkspace(g.N())
	cfg := Config{Alpha: 0.15, Eta: 2, Delta: 0, MaxIters: 10} // η > any residue
	st := Start(0, NoHubs)
	if got := Step(g, st, NoHubs, cfg, ws); got != 0 {
		t.Fatalf("Step propagated %d nodes, want 0", got)
	}
	if st.T != 0 {
		t.Errorf("T advanced to %d on no-op step", st.T)
	}
}

func TestRunStopsAtDelta(t *testing.T) {
	g := toyGraph(t)
	ws := NewWorkspace(g.N())
	cfg := Config{Alpha: 0.15, Eta: 1e-6, Delta: 0.3, MaxIters: 1000}
	st, err := Run(g, 3, NoHubs, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if st.RNorm > 0.3 {
		t.Errorf("RNorm = %g > δ", st.RNorm)
	}
	if st.T == 0 {
		t.Error("no iterations executed")
	}
	if err := st.CheckInvariant(1e-9); err != nil {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	g := toyGraph(t)
	ws := NewWorkspace(g.N())
	if _, err := Run(g, 99, NoHubs, DefaultConfig(), ws); err == nil {
		t.Error("want range error")
	}
	if _, err := Run(g, 0, NoHubs, Config{}, ws); err == nil {
		t.Error("want config error")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := toyGraph(t)
	ws := NewWorkspace(g.N())
	st, err := Run(g, 2, NoHubs, DefaultConfig(), ws)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Clone()
	if len(c.R.Val) > 0 {
		c.R.Val[0] = 42
		if st.R.Val[0] == 42 {
			t.Error("Clone aliases R")
		}
	}
	if c.R.NNZ() != st.R.NNZ() || c.W.NNZ() != st.W.NNZ() || c.S.NNZ() != st.S.NNZ() || c.RNorm != st.RNorm {
		t.Error("Clone changed the state")
	}
}

// TestSummarizedStateInvariantAndGuards: a summary — a state with R and W
// dropped and ‖r‖₁ kept — is told apart from every full state and from a
// folded one that still holds W, passes CheckInvariant on what it keeps and
// fails it when it keeps more than the unit of ink, has no batch ink, and Step
// and TopK refuse it. A non-summary fails CheckInvariant when ‖r‖₁ falls below
// its stored ‖R‖₁ or its ink is not conserved.
func TestSummarizedStateInvariantAndGuards(t *testing.T) {
	g := toyGraph(t)
	ws := NewWorkspace(g.N())
	cfg := Config{Alpha: 0.15, Eta: 1e-6, Delta: 0.3, MaxIters: 1000}
	hubs := newExactHubs(t, g, []graph.NodeID{1})
	st, err := Run(g, 3, hubs, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if st.RNorm == 0 || st.S.NNZ() == 0 {
		t.Fatalf("want a run with residue left and hub ink parked: ‖r‖₁=%g, %d S entries", st.RNorm, st.S.NNZ())
	}
	if st.Summarized() || Start(3, hubs).Summarized() {
		t.Fatal("a full state reads as a summary")
	}
	sum := &State{Origin: st.Origin, T: st.T, RNorm: st.RNorm, S: st.S}
	if !sum.Summarized() || sum.BatchInk(cfg.Eta) != 0 {
		t.Fatalf("summary: Summarized=%v, batch ink %g", sum.Summarized(), sum.BatchInk(cfg.Eta))
	}
	if err := sum.CheckInvariant(1e-9); err != nil {
		t.Fatal(err)
	}
	// Every R entry folded, W kept: what a step leaves when all its pushes
	// land on hubs. Legal, steppable (a no-op) and not a summary.
	foldedAll := &State{Origin: st.Origin, T: st.T, RNorm: st.RNorm, W: st.W, S: st.S}
	if foldedAll.Summarized() {
		t.Fatal("a folded state holding W reads as a summary")
	}
	if err := foldedAll.CheckInvariant(1e-9); err != nil {
		t.Fatal(err)
	}
	if n := Step(g, foldedAll.Clone(), hubs, cfg, ws); n != 0 {
		t.Fatalf("a state with no R pushed %d nodes", n)
	}
	for name, bad := range map[string]*State{
		"residue above 1": {RNorm: 1.5},
		"r+s above 1":     {RNorm: 1 - st.S.L1()/2, S: st.S},
	} {
		if !bad.Summarized() || bad.CheckInvariant(1e-9) == nil {
			t.Errorf("%s: a malformed summary passes CheckInvariant", name)
		}
	}
	// ‖r‖₁ halved and the other half moved to W: ink is conserved, but R
	// stores more than the residue.
	below := st.Clone()
	below.W.Val[0] += below.RNorm / 2
	below.RNorm /= 2
	for name, bad := range map[string]*State{
		"‖r‖₁ below ‖R‖₁":   below,
		"ink not conserved": {RNorm: st.RNorm + 0.01, W: st.W, S: st.S},
	} {
		if bad.Summarized() || bad.CheckInvariant(1e-9) == nil {
			t.Errorf("%s: a malformed state passes CheckInvariant", name)
		}
	}
	for name, use := range map[string]func(){
		"Step": func() { Step(g, sum.Clone(), hubs, cfg, ws) },
		"TopK": func() { TopK(sum, hubs, ws, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a summarized state", name)
				}
			}()
			use()
		}()
	}
}

func TestStrategiesAllReachDelta(t *testing.T) {
	g := toyGraph(t)
	cfg := Config{Alpha: 0.15, Eta: 1e-7, Delta: 0.05, MaxIters: 100000}
	exact, _ := rwr.ProximityVector(g, 3, rwr.DefaultParams())
	for _, strat := range []Strategy{StrategyBatch, StrategyMaxResidual, StrategyQueue} {
		ws := NewWorkspace(g.N())
		st, steps, err := RunStrategy(g, 3, NoHubs, cfg, ws, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if st.RNorm > cfg.Delta {
			t.Errorf("%v: RNorm %g > δ", strat, st.RNorm)
		}
		if err := st.CheckInvariant(1e-9); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
		if steps == 0 {
			t.Errorf("%v: zero steps", strat)
		}
		// Lower-bound property holds for every strategy.
		pt := MaterializePt(st, NoHubs, ws)
		for v := range pt {
			if pt[v] > exact.Vector[v]+1e-9 {
				t.Errorf("%v: p^t(%d) exceeds exact", strat, v)
			}
		}
	}
}

func TestBatchNeedsFewerIterationsThanSinglePush(t *testing.T) {
	// The paper's §4.1.2 claim: batch propagation reaches the residue
	// target in far fewer iterations than single-node strategies.
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 300, false)
	cfg := Config{Alpha: 0.15, Eta: 1e-6, Delta: 0.05, MaxIters: 1000000}
	ws := NewWorkspace(g.N())
	_, batchSteps, err := RunStrategy(g, 0, NoHubs, cfg, ws, StrategyBatch)
	if err != nil {
		t.Fatal(err)
	}
	_, queueSteps, err := RunStrategy(g, 0, NoHubs, cfg, ws, StrategyQueue)
	if err != nil {
		t.Fatal(err)
	}
	if batchSteps >= queueSteps {
		t.Errorf("batch used %d iterations, queue used %d pushes; expected batch ≪ queue", batchSteps, queueSteps)
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{StrategyBatch, StrategyMaxResidual, StrategyQueue, Strategy(9)} {
		if s.String() == "" {
			t.Errorf("empty name for %d", int(s))
		}
	}
}

func TestRunStrategyHubOrigin(t *testing.T) {
	g := toyGraph(t)
	hubs := newExactHubs(t, g, []graph.NodeID{2})
	ws := NewWorkspace(g.N())
	st, steps, err := RunStrategy(g, 2, hubs, DefaultConfig(), ws, StrategyMaxResidual)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 0 || st.RNorm != 0 {
		t.Errorf("hub origin should be a no-op run: steps=%d rnorm=%g", steps, st.RNorm)
	}
}

func TestWorkspaceSizeMismatchPanics(t *testing.T) {
	g := toyGraph(t)
	ws := NewWorkspace(3)
	st := Start(0, NoHubs)
	defer func() {
		if recover() == nil {
			t.Error("want panic on workspace size mismatch")
		}
	}()
	Step(g, st, NoHubs, DefaultConfig(), ws)
}
