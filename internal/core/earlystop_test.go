package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// The suites below hold the exact fallback's early stop (resolveExact's
// probe) to the converged decision. "Forced off" is the same run finished with
// q = −1: the same screen, the same sweep and the same fallbacks, but no asker
// names a query node, so every fallback column runs to convergence.

// fallbackPhases tallies, over the queries of one suite, where the fallbacks
// that stopped early were when they did: in the slab's ball phase (the query
// swept every fallback iteration over a forward ball) or past the hand-over
// to the dense loop (some column ran on after it, and all stopped early). A
// suite that meets only one of the two has left a phase of the probe untested.
type fallbackPhases struct{ inBall, afterHandover atomic.Int64 }

func (f *fallbackPhases) add(st QueryStats) {
	switch {
	case st.FallbackEarlyStops == 0:
	case st.FallbackBallIters == st.FallbackIters:
		f.inBall.Add(1)
	case st.FallbackEarlyStops == st.ExactFallbacks:
		f.afterHandover.Add(1)
	}
}

func (f *fallbackPhases) check(t *testing.T) {
	t.Helper()
	if f.inBall.Load() == 0 || f.afterHandover.Load() == 0 {
		t.Errorf("queries whose fallbacks stopped early inside the ball: %d, after the hand-over: %d; want both",
			f.inBall.Load(), f.afterHandover.Load())
	}
}

// bruteForceFrom is BruteForce's membership test over an already computed
// proximity matrix (cols[u] = p_u), so one matrix serves every (q, k).
func bruteForceFrom(cols [][]float64, q graph.NodeID, k int) []graph.NodeID {
	var results []graph.NodeID
	for u := range cols {
		if cols[u][q] >= vecmath.KthLargest(cols[u], k) {
			results = append(results, graph.NodeID(u))
		}
	}
	return results
}

// TestEarlyStopMatchesConvergedAndBruteForce: across the oracle families ×
// k ∈ {1, 10, K}, the engine's answer with the probe equals
// its answer with the probe forced off equals brute force; the same
// candidates reach the fallback either way; and the probe really engages
// (fewer forward iterations, some early stops) while the forced-off run
// reports none. Between them the families stop fallbacks early in both phases
// of the slab (web's forward balls stay under half the graph, coauthor's pass
// it within a few iterations).
func TestEarlyStopMatchesConvergedAndBruteForce(t *testing.T) {
	const indexK = 20
	p := rwr.DefaultParams()
	var phases fallbackPhases
	t.Cleanup(func() { phases.check(t) }) // runs once the parallel families are done
	for _, family := range []string{"web", "coauthor", "spam"} {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			g := oracleGraph(t, family)
			idx := buildIndex(t, g, indexK, 6)
			cols, err := rwr.ProximityMatrix(g, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(g, idx, false)
			if err != nil {
				t.Fatal(err)
			}
			var on, off QueryStats
			for _, k := range []int{1, 10, indexK} {
				for _, q := range anytimeQueries(g.N()) {
					label := fmt.Sprintf("q=%d k=%d", q, k)
					want := bruteForceFrom(cols, q, k)
					got, st, err := eng.Query(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: engine %v, brute force %v", label, got, want)
					}
					r, err := eng.start(q, k)
					if err == nil {
						err = r.Rounds(0, 0)
					}
					if err != nil {
						t.Fatal(err)
					}
					r.q = -1
					conv, cst, err := eng.finish(r, r.screens[0])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(conv, want) {
						t.Fatalf("%s: converged fallbacks %v, brute force %v", label, conv, want)
					}
					if st.ExactFallbacks != cst.ExactFallbacks || st.Candidates != cst.Candidates || st.RefineSteps != cst.RefineSteps {
						t.Fatalf("%s: the probe changed the sweep: %+v vs %+v", label, st, cst)
					}
					if cst.FallbackEarlyStops != 0 {
						t.Fatalf("%s: %d early stops without a query node", label, cst.FallbackEarlyStops)
					}
					if st.FallbackIters > cst.FallbackIters {
						t.Fatalf("%s: %d iterations with the probe, %d without", label, st.FallbackIters, cst.FallbackIters)
					}
					if st.FallbackBallIters > st.FallbackIters || cst.FallbackBallIters > cst.FallbackIters {
						t.Fatalf("%s: more ball iterations than iterations: %+v, %+v", label, st, cst)
					}
					phases.add(st)
					on.ExactFallbacks += st.ExactFallbacks
					on.FallbackIters += st.FallbackIters
					on.FallbackEarlyStops += st.FallbackEarlyStops
					off.FallbackIters += cst.FallbackIters
				}
			}
			if on.ExactFallbacks == 0 || on.FallbackEarlyStops == 0 {
				t.Fatalf("nothing exercised: %d fallbacks, %d early stops", on.ExactFallbacks, on.FallbackEarlyStops)
			}
			if on.FallbackIters >= off.FallbackIters {
				t.Errorf("probe saved nothing: %d forward iterations against %d converged", on.FallbackIters, off.FallbackIters)
			}
			t.Logf("%d fallbacks, %d early stops, %d iterations against %d converged",
				on.ExactFallbacks, on.FallbackEarlyStops, on.FallbackIters, off.FallbackIters)
		})
	}
}

// TestEarlyStopSelfCandidatesAndExactTies aims the probe at the two asker
// shapes a sampled query list may miss. A self-candidate (u = q) has its
// anchor p_u(u) ≥ α far above everything else. An exact tie — q is the node
// at rank k of p_u, the commonest fallback in practice — has p_u(q) equal to
// pkmax(u) to the last bits, so only the anchored test (q left out of κ) can
// decide it before convergence. Every outcome must equal the converged
// decision and brute force, and the ties must actually stop early.
func TestEarlyStopSelfCandidatesAndExactTies(t *testing.T) {
	const indexK = 20
	p := rwr.DefaultParams()
	for _, family := range []string{"web", "coauthor", "spam"} {
		g := oracleGraph(t, family)
		idx := buildIndex(t, g, indexK, 6)
		eng, err := NewEngine(g, idx, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 10, indexK} {
			var askers []pendingFallback
			var want []bool
			var ties []int // askers that are exact ties with a gap below them
			for _, u := range anytimeQueries(g.N()) {
				pu, err := rwr.ProximityVectorParallel(g, u, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				top := vecmath.TopKEntries(pu.Vector, k+1)
				if len(top) < k {
					continue // u reaches fewer than k nodes
				}
				th := top[k-1].Value
				for _, q := range []graph.NodeID{u, top[k-1].Index} {
					pq, err := rwr.ProximityToParallel(g, q, p, 1)
					if err != nil {
						t.Fatal(err)
					}
					if q != u && len(top) > k && th-top[k].Value > 1e-6 {
						ties = append(ties, len(askers))
					}
					askers = append(askers, pendingFallback{u: u, q: q, puq: pq.Vector[u]})
					want = append(want, pu.Vector[q] >= th)
				}
			}
			converged := make([]pendingFallback, len(askers))
			for i, a := range askers {
				a.q = -1
				converged[i] = a
			}
			got, _, err := eng.resolveExact(askers, k)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := eng.resolveExact(converged, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range askers {
				if got[i].member != want[i] || ref[i].member != want[i] {
					t.Errorf("%s k=%d u=%d q=%d: probe says %v, converged %v, brute force %v",
						family, k, a.u, a.q, got[i].member, ref[i].member, want[i])
				}
				if ref[i].early || got[i].iters > ref[i].iters {
					t.Errorf("%s k=%d u=%d q=%d: %+v against converged %+v", family, k, a.u, a.q, got[i], ref[i])
				}
			}
			// A tie with a clear gap below it must stop early.
			for _, i := range ties {
				if !got[i].member {
					t.Errorf("%s k=%d: rank-k node %d of %d decided non-member", family, k, askers[i].q, askers[i].u)
				}
				if !got[i].early {
					t.Errorf("%s k=%d: exact tie u=%d q=%d ran to convergence (%d iterations)",
						family, k, askers[i].u, askers[i].q, got[i].iters)
				}
			}
		}
	}
}

// twinGraph is randomGraph(seed, n, false) plus two extra nodes n and n+1
// with identical in- and out-neighborhoods: p_u(n) = p_u(n+1) bit for bit
// for every other u, at every iteration.
func twinGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n + 2)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	for _, twin := range []graph.NodeID{graph.NodeID(n), graph.NodeID(n + 1)} {
		for _, src := range []graph.NodeID{3, 17, 58, 90} {
			b.AddEdge(src, twin)
		}
		b.AddEdge(twin, 5)
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		panic(err)
	}
	return g
}

// TestEarlyStopTwinTieRunsToConvergence: the same node asked about by two
// queries gets two verdicts from the probe. For an ordinary query node the
// band clears the anchor early; for a twin — whose proximity ties its
// sibling's at ranks k and k+1 at every iteration, which no band wider than
// tieTol separates — the column must keep iterating to convergence. Both
// decisions, and both queries' answers, equal brute force.
func TestEarlyStopTwinTieRunsToConvergence(t *testing.T) {
	const k = 6
	g := twinGraph(11, 150)
	twin, other, shared := graph.NodeID(150), graph.NodeID(72), graph.NodeID(17)
	idx := buildIndex(t, g, 10, 2)
	p := rwr.DefaultParams()
	eng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []fallbackOutcome
	for _, q := range []graph.NodeID{other, twin} {
		bf, err := BruteForce(g, q, k, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.Query(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, bf) {
			t.Errorf("q=%d: engine %v, brute force %v", q, got, bf)
		}
		pq, err := rwr.ProximityToParallel(g, q, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := eng.resolveExact([]pendingFallback{{u: shared, q: q, puq: pq.Vector[shared]}}, k)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].member != slices.Contains(bf, shared) {
			t.Errorf("q=%d: node %d decided member=%v, brute force says %v", q, shared, out[0].member, !out[0].member)
		}
		outcomes = append(outcomes, out[0])
	}
	if early, held := outcomes[0], outcomes[1]; !early.early || held.early || early.iters >= held.iters {
		t.Fatalf("node %d stops at %+v for q=%d and %+v for q=%d; want an early stop and a converged column",
			shared, early, other, held, twin)
	}
}

// TestUpdateModeFallbackCommitsStayExact: an update-mode engine never
// probes — committing needs the converged vector — so every fallback it
// resolves leaves the bit-identical exact state the scalar solver gives:
// all of p_u retained, no residue, the top-K row of p_u.
func TestUpdateModeFallbackCommitsStayExact(t *testing.T) {
	p := rwr.DefaultParams()
	g := randomGraph(11, 150, false)
	idx := buildIndex(t, g, 10, 2)
	probe, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	const q, k = 5, 10
	ex, err := probe.Explain(q, k, false)
	if err != nil {
		t.Fatal(err)
	}
	pend := fallbacksOf(ex, q)
	if len(pend) == 0 {
		t.Fatal("no fallbacks fired; pick another query")
	}

	eng, err := NewEngine(g, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := eng.Query(q, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ExactFallbacks != len(pend) || stats.FallbackEarlyStops != 0 || stats.Committed < len(pend) {
		t.Fatalf("update-mode query: %+v, want %d converged, committed fallbacks", stats, len(pend))
	}
	for _, pf := range pend {
		exact, err := rwr.ProximityVectorParallel(g, pf.u, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		state := idx.StateSnapshot(pf.u)
		if state.RNorm != 0 || !reflect.DeepEqual(state.W, vecmath.GatherSparse(exact.Vector, 0)) {
			t.Errorf("node %d: committed state is not the exact vector (residue %g)", pf.u, state.RNorm)
		}
		if row := idx.PHatRow(pf.u); !reflect.DeepEqual(row, vecmath.TopKValues(exact.Vector, idx.K())) {
			t.Errorf("node %d: committed row %v is not the exact top-K", pf.u, row)
		}
	}
}

// fallbacksOf lists, in sweep order, the candidates an explained query left
// to the exact fallback, as the sweep would have deferred them.
func fallbacksOf(ex *Explanation, q graph.NodeID) []pendingFallback {
	var pend []pendingFallback
	for _, d := range ex.Decisions {
		if d.Outcome == OutcomeFallback {
			pend = append(pend, pendingFallback{u: d.Node, q: q, puq: d.Proximity})
		}
	}
	return pend
}
