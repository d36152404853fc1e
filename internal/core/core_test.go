package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
	"repro/internal/rwr"
	"repro/internal/vecmath"
	"repro/internal/workload"
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

func randomGraph(seed int64, n int, weighted bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
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

// buildIndex builds an UNROUNDED index (ω=0). Rounding deliberately trades
// exactness for space (§4.1.3, Fig. 9), so the tests that require
// engine ≡ brute-force equality must disable it; the rounding trade-off
// has its own test below.
func buildIndex(t testing.TB, g *graph.Graph, k, hubBudget int) *lbindex.Index {
	t.Helper()
	opts := lbindex.DefaultOptions()
	opts.K = k
	opts.HubBudget = hubBudget
	opts.Omega = 0
	opts.Workers = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// queryConverged is e.Query with the PMPN stepped to convergence before its
// one screen, as an update-mode, practical-mode or explaining engine runs it:
// the run a final stop is held to, decided on the converged vector.
func queryConverged(e *Engine, q graph.NodeID, k int) ([]graph.NodeID, QueryStats, error) {
	r, err := e.start(q, k, true)
	if err != nil {
		return nil, QueryStats{}, err
	}
	if err := r.Rounds(0); err != nil {
		return nil, QueryStats{}, err
	}
	return e.finish(r, r.screens[0])
}

func TestUpperBoundNoResidue(t *testing.T) {
	phat := []float64{0.5, 0.3, 0.2}
	if got := UpperBound(phat, 2, 0); got != 0.3 {
		t.Errorf("UpperBound = %g, want exact lower bound 0.3", got)
	}
}

func TestUpperBoundKOne(t *testing.T) {
	// k=1: all residue could land on the single top step.
	phat := []float64{0.5, 0.3}
	if got := UpperBound(phat, 1, 0.2); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("UpperBound = %g, want 0.7", got)
	}
}

func TestUpperBoundPartialFill(t *testing.T) {
	// Staircase 0.5, 0.4, 0.3, 0.2, 0.1 with k=5.
	// z_1 = 1·(0.2−0.1) = 0.1; z_2 = 0.1 + 2·(0.3−0.2) = 0.3.
	// ‖r‖=0.2 lands in (z_1, z_2]: ub = p̂(3) − (z_2 − 0.2)/2 = 0.3 − 0.05.
	phat := []float64{0.5, 0.4, 0.3, 0.2, 0.1}
	if got := UpperBound(phat, 5, 0.2); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("UpperBound = %g, want 0.25", got)
	}
}

func TestUpperBoundOverflow(t *testing.T) {
	// Same staircase; z_4 = 0.3 + 3·0.1 + 4·0.1 = 1.0. ‖r‖=1.4 submerges
	// everything: ub = p̂(1) + (1.4 − 1.0)/5 = 0.5 + 0.08.
	phat := []float64{0.5, 0.4, 0.3, 0.2, 0.1}
	if got := UpperBound(phat, 5, 1.4); math.Abs(got-0.58) > 1e-12 {
		t.Errorf("UpperBound = %g, want 0.58", got)
	}
}

func TestUpperBoundExactBoundary(t *testing.T) {
	// ‖r‖ exactly equal to z_j uses the first line with level at step k−j.
	phat := []float64{0.5, 0.4, 0.3, 0.2, 0.1}
	// z_1 = 0.1: level reaches step 4 exactly → ub = p̂(4) = 0.2.
	if got := UpperBound(phat, 5, 0.1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("UpperBound = %g, want 0.2", got)
	}
}

func TestUpperBoundPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	UpperBound([]float64{0.5}, 2, 0.1)
}

// pourSimulation computes the best-possible k-th value by greedily
// simulating Figures 3/4: raise the lowest of the top-k steps first,
// spending `ink` to level them up — an independent re-derivation of
// Algorithm 3 used as its oracle.
func pourSimulation(phat []float64, k int, ink float64) float64 {
	steps := make([]float64, k)
	copy(steps, phat[:k])
	// Level-up loop: find the current minimum level among the k steps,
	// and the next-higher distinct level; fill the gap across all steps
	// at the minimum.
	for ink > 1e-15 {
		min := steps[0]
		for _, s := range steps {
			if s < min {
				min = s
			}
		}
		// Count steps at the minimum and find the next level above.
		count := 0
		next := math.Inf(1)
		for _, s := range steps {
			if s == min {
				count++
			} else if s < next {
				next = s
			}
		}
		var raise float64
		if math.IsInf(next, 1) {
			raise = ink / float64(count) // all equal: distribute the rest
		} else {
			raise = next - min
			if needed := raise * float64(count); needed > ink {
				raise = ink / float64(count)
			}
		}
		for i := range steps {
			if steps[i] == min {
				steps[i] += raise
			}
		}
		ink -= raise * float64(count)
		if raise == 0 {
			break
		}
	}
	min := steps[0]
	for _, s := range steps {
		if s < min {
			min = s
		}
	}
	return min
}

func TestUpperBoundMatchesPourSimulation(t *testing.T) {
	// Algorithm 3's closed form must equal the greedy pouring simulation
	// on random staircases.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		phat := make([]float64, k+rng.Intn(4))
		v := rng.Float64()
		for i := range phat {
			phat[i] = v
			v *= 0.3 + 0.7*rng.Float64()
		}
		ink := rng.Float64() * 2
		got := UpperBound(phat, k, ink)
		want := pourSimulation(phat, k, ink)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProposition4UpperBoundSoundAndMonotone(t *testing.T) {
	// ub^t ≥ pkmax always, and ub^t is non-increasing as BCA refines.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 20+rng.Intn(30), false)
		u := graph.NodeID(rng.Intn(g.N()))
		k := 1 + rng.Intn(5)
		exact, err := rwr.ProximityVector(g, u, rwr.DefaultParams())
		if err != nil {
			return false
		}
		pkmax := vecmath.KthLargest(exact.Vector, k)
		ws := bca.NewWorkspace(g.N())
		cfg := bca.Config{Alpha: 0.15, Eta: 1e-7, Delta: 0, MaxIters: 200}
		st := bca.Start(u, bca.NoHubs)
		prevUB := math.Inf(1)
		for it := 0; it < 25; it++ {
			if bca.Step(g, st, bca.NoHubs, cfg, ws) == 0 {
				break
			}
			phat := bca.TopK(st, bca.NoHubs, ws, k)
			ub := UpperBound(phat, k, st.RNorm)
			if ub < pkmax-1e-9 {
				return false // not an upper bound
			}
			if ub > prevUB+1e-9 {
				return false // not monotone
			}
			prevUB = ub
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEngineMatchesBruteForceToy(t *testing.T) {
	g := toyGraph(t)
	idx := buildIndex(t, g, 3, 1)
	eng, err := NewEngine(g, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	tab := oracle.Of(t, g, 3)
	tab.Queries, tab.Ks = workload.AllNodes(g.N()), []int{1, 2, 3}
	oracle.Check(t, "Engine.Query", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
		got, stats, err := eng.Query(q, k)
		if err == nil && stats.Results != len(got) {
			err = fmt.Errorf("stats.Results = %d, len = %d", stats.Results, len(got))
		}
		return got, err
	})
}

func TestEngineMatchesBruteForceRandom(t *testing.T) {
	// The central end-to-end property: OQ ≡ BF on random graphs, both
	// update modes, weighted and unweighted.
	for seed := int64(1); seed <= 6; seed++ {
		weighted := seed%2 == 0
		g := randomGraph(seed, 60, weighted)
		idx := buildIndex(t, g, 10, 3)
		tab := oracle.Of(t, g, 10)
		for _, update := range []bool{false, true} {
			eng, err := NewEngine(g, idx, update)
			if err != nil {
				t.Fatal(err)
			}
			row := fmt.Sprintf("seed=%d update=%t: Engine.Query", seed, update)
			oracle.Check(t, row, tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
				got, stats, err := eng.Query(q, k)
				if err != nil {
					return nil, err
				}
				if stats.Hits > stats.Candidates || stats.Results > stats.Candidates {
					return nil, fmt.Errorf("inconsistent stats: %+v", stats)
				}
				if !update && stats.Committed != 0 {
					return nil, fmt.Errorf("no-update engine committed %d states", stats.Committed)
				}
				return got, nil
			})
		}
	}
}

func TestEngineMatchesBruteForceAllDanglingPolicies(t *testing.T) {
	// The engine must be exact regardless of how dangling nodes were
	// resolved at graph construction (footnote 1 of the paper).
	for _, policy := range []graph.DanglingPolicy{graph.DanglingSelfLoop, graph.DanglingSharedSink, graph.DanglingPrune} {
		rng := rand.New(rand.NewSource(77))
		b := graph.NewBuilder(50)
		for i := 0; i < 150; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(50)), graph.NodeID(rng.Intn(50)))
		}
		g, _, err := b.Build(policy)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() == 0 {
			continue
		}
		idx := buildIndex(t, g, 5, 2)
		eng, err := NewEngine(g, idx, true)
		if err != nil {
			t.Fatal(err)
		}
		tab := oracle.Of(t, g, 5)
		tab.Queries, tab.Ks = []graph.NodeID{0, graph.NodeID(g.N() / 2), graph.NodeID(g.N() - 1)}, []int{5}
		oracle.Check(t, fmt.Sprintf("%v: Engine.Query", policy), tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
			got, _, err := eng.Query(q, k)
			return got, err
		})
	}
}

func TestUpdateModeCommitsAndHelps(t *testing.T) {
	g := randomGraph(42, 120, false)
	idx := buildIndex(t, g, 10, 3)
	eng, err := NewEngine(g, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	q := graph.NodeID(7)
	_, s1, err := eng.Query(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Re-running the same query against the refined index must not need
	// more refinement than the first run.
	res2, s2, err := eng.Query(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s2.RefineSteps > s1.RefineSteps {
		t.Errorf("refined index needed MORE steps: %d then %d", s1.RefineSteps, s2.RefineSteps)
	}
	if s1.Committed > 0 && idx.Refinements() == 0 {
		t.Error("commits not recorded in the index")
	}
	// Results stay identical across refinement.
	res1, _, _ := eng.Query(q, 10)
	if !reflect.DeepEqual(res1, res2) {
		t.Error("refinement changed the answer")
	}
}

func TestQueryValidation(t *testing.T) {
	g := toyGraph(t)
	idx := buildIndex(t, g, 3, 1)
	eng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Query(-1, 2); err == nil {
		t.Error("want range error")
	}
	if _, _, err := eng.Query(0, 0); err == nil {
		t.Error("want k error")
	}
	if _, _, err := eng.Query(0, 4); err == nil {
		t.Error("want k > K error")
	}
}

func TestNewEngineDimensionMismatch(t *testing.T) {
	g := toyGraph(t)
	idx := buildIndex(t, g, 3, 1)
	other := randomGraph(1, 10, false)
	if _, err := NewEngine(other, idx, false); err == nil {
		t.Error("want dimension error")
	}
}

// TestBruteForceMatchesTable is BruteForce's row of the oracle table, on the
// family with exact ties at the k-th rank: the reference the benchmark's
// gate and the quickstart check the engine against answers as the table
// does.
func TestBruteForceMatchesTable(t *testing.T) {
	tab := oracle.Family(t, "ties")
	p := tab.Index(t).Options().RWR
	oracle.Check(t, "BruteForce", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
		return BruteForce(tab.Graph, q, k, p, 2)
	})
}

func TestBruteForceValidation(t *testing.T) {
	g := toyGraph(t)
	p := rwr.DefaultParams()
	if _, err := BruteForce(g, 99, 2, p, 1); err == nil {
		t.Error("want range error")
	}
	if _, err := BruteForce(g, 0, 0, p, 1); err == nil {
		t.Error("want k error")
	}
}

func TestExpectedResultSizeIsAboutK(t *testing.T) {
	// §3 observation: the expected reverse top-k answer size is k, since
	// each of the n top-k lists contains k entries spread over n nodes.
	// This requires every node to have ≥ k reachable nodes (else its
	// pkmax is 0 and it joins every answer) and no exact proximity ties
	// (else top-k lists exceed k under the ≥ rule): a Hamiltonian cycle
	// plus random weighted edges gives both.
	rng := rand.New(rand.NewSource(3))
	n := 100
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddWeightedEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64())
	}
	for i := 0; i < 3*n; i++ {
		b.AddWeightedEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), 1+rng.Float64()*4)
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildIndex(t, g, 5, 3)
	eng, err := NewEngine(g, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	var total int
	for q := graph.NodeID(0); int(q) < g.N(); q++ {
		res, _, err := eng.Query(q, k)
		if err != nil {
			t.Fatal(err)
		}
		total += len(res)
	}
	avg := float64(total) / float64(g.N())
	if avg < float64(k)*0.9 || avg > float64(k)*1.1 {
		t.Errorf("average answer size %g, want ≈ %d", avg, k)
	}
}

func TestRoundedIndexHighJaccard(t *testing.T) {
	// With a small ω the rounded index returns nearly the same answers as
	// the exact one (Fig. 9: ω ≤ 1e-5 gives Jaccard 1.0 on real graphs).
	g := randomGraph(8, 100, true)
	opts := lbindex.DefaultOptions()
	opts.K = 5
	opts.HubBudget = 3
	opts.Omega = 1e-7
	opts.Workers = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	tab := oracle.Of(t, g, 5)
	var inter, union int
	for q := graph.NodeID(0); int(q) < 20; q++ {
		got, _, err := eng.Query(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := tab.Want(q, 5)
		set := map[graph.NodeID]bool{}
		for _, u := range got {
			set[u] = true
		}
		union += len(got)
		for _, u := range want {
			if set[u] {
				inter++
			} else {
				union++
			}
		}
	}
	jaccard := float64(inter) / float64(union)
	if jaccard < 0.97 {
		t.Errorf("rounded-index Jaccard = %g, want ≥ 0.97", jaccard)
	}
}

func TestQueryNodeUsuallyInOwnResult(t *testing.T) {
	// p_q(q) is almost always among q's own top-k (it holds the restart
	// mass), so q should appear in its own reverse top-k answer.
	g := toyGraph(t)
	idx := buildIndex(t, g, 3, 1)
	eng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.Query(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range res {
		if u == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("query node not in its own reverse top-3: %v", res)
	}
}

// TestBatchedFallbacksMatchBruteForce pins the deferred-fallback path:
// the candidates whose next refinement step could not decide them (refine's
// rule) must be resolved by the SpMM-batched exact solver. The answers must
// still equal brute force, sequential and sharded engines must agree, and
// in update mode the committed exact states must make a repeat query need
// zero fallbacks.
func TestBatchedFallbacksMatchBruteForce(t *testing.T) {
	for _, seed := range []int64{3, 8} {
		g := randomGraph(seed, 150, seed%2 == 0)
		tab := oracle.Of(t, g, 10)
		rng := rand.New(rand.NewSource(seed + 7))
		queries := make([]graph.NodeID, 3)
		for i := range queries {
			queries[i] = graph.NodeID(rng.Intn(g.N()))
		}

		fallbacks := 0
		var seqAnswers [][]graph.NodeID
		{
			idx := buildIndex(t, g, 10, 2)
			eng, err := NewEngine(g, idx, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				got, stats, err := eng.Query(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				if want := tab.Want(q, 10); !slices.Equal(got, want) {
					t.Fatalf("seed=%d q=%d: engine %v, brute force %v", seed, q, got, want)
				}
				fallbacks += stats.ExactFallbacks
				seqAnswers = append(seqAnswers, got)
				// The batch committed every fallback node's EXACT vector:
				// repeating the query must not fall back again.
				_, again, err := eng.Query(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				if again.ExactFallbacks != 0 {
					t.Fatalf("seed=%d q=%d: %d fallbacks on refined index", seed, q, again.ExactFallbacks)
				}
			}
		}
		if fallbacks == 0 {
			t.Fatalf("seed=%d: the refinement rule deferred nothing — test exercises nothing", seed)
		}

		// Sharded sweep, fresh index: identical answers and identical
		// fallback counts (the pending list is worker-independent).
		idx := buildIndex(t, g, 10, 2)
		eng, err := NewEngine(g, idx, true)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetWorkers(4)
		shardedFallbacks := 0
		for i, q := range queries {
			got, stats, err := eng.Query(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, seqAnswers[i]) {
				t.Fatalf("seed=%d q=%d: sharded %v, sequential %v", seed, q, got, seqAnswers[i])
			}
			shardedFallbacks += stats.ExactFallbacks
		}
		if shardedFallbacks != fallbacks {
			t.Fatalf("seed=%d: sharded engine made %d fallbacks, sequential %d", seed, shardedFallbacks, fallbacks)
		}
	}
}
