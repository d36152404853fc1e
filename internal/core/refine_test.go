package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bca"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rwr"
)

// TestRefineRuleFallbackSoundness holds refine's one-step test to what it
// claims. Across the oracle families × k ∈ {1, 10, K} × every seventh node as
// the query (the out-of-reach side of the rule binds for few candidates; a
// handful of queries never meets one), every candidate refine leaves open is
// made to take the step the rule skipped, and the step must
// do no better than the rule said it could: the undecided mass falls by at
// most the batch ink B, the new upper bound stays at or above
// UpperBound(p̂, k, ρ − B), the new k-th lower bound at or below
// UpperBound(p̂, k, B) — and so the candidate is still undecided.
func TestRefineRuleFallbackSoundness(t *testing.T) {
	const (
		indexK = 20
		round  = 1e-12 // floating-point slop on the three inequalities
	)
	p := rwr.DefaultParams()
	for _, family := range []string{"web", "coauthor", "spam"} {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			g := oracle.Family(t, family).Graph
			idx := buildIndex(t, g, indexK, 6)
			eng, err := NewEngine(g, idx, false)
			if err != nil {
				t.Fatal(err)
			}
			cfg, hm := idx.Options().BCA, idx.HubMatrix()
			ws := bca.NewWorkspace(g.N())
			deferred, moved, refined := 0, 0, 0
			for _, k := range []int{1, 10, indexK} {
				for q := graph.NodeID(0); int(q) < g.N(); q += 7 {
					pq, err := rwr.ProximityToParallel(g, q, p, 1)
					if err != nil {
						t.Fatal(err)
					}
					for u := graph.NodeID(0); int(u) < g.N(); u++ {
						// decide's screen: only candidates the indexed bounds
						// leave open reach refine.
						puq := pq.Vector[u]
						rho := idx.ResidueNorm(u) + idx.RoundingSlack(u)
						phat := idx.PHatRow(u)
						if prunedByLowerBound(puq, phat[k-1], eng.tieTol) || rho == 0 || puq >= UpperBound(phat, k, rho)-eng.tieTol {
							continue
						}
						ink0, t0 := idx.BatchInk(u, cfg.Eta)
						r := eng.refine(ws, u, k, puq, puq, phat, rho, ink0, t0)
						refined += r.steps
						if r.decided {
							continue
						}
						deferred++
						st := r.st
						if st == nil {
							st = idx.StateSnapshot(u)
						} else {
							phat = bca.TopK(st, hm, ws, k)
							rho = st.RNorm + idx.StateSlack(st)
						}
						ink := st.BatchInk(cfg.Eta)
						if r.st == nil && ink == 0 && !st.Summarized() && st.RNorm != 0 {
							t.Fatalf("q=%d k=%d u=%d: stored state with residue %g but no batch ink is not summarized", q, k, u, st.RNorm)
						}
						if st.Summarized() {
							// The skipped step would be a no-op, and a summary
							// cannot be stepped at all.
							continue
						}
						if n := bca.Step(g, st, hm, cfg, ws); (n > 0) != (ink > 0) {
							t.Fatalf("q=%d k=%d u=%d: batch ink %g but %d nodes propagated", q, k, u, ink, n)
						}
						if ink > 0 {
							moved++
						}
						label := fmt.Sprintf("q=%d k=%d u=%d after %d steps (ρ=%g, B=%g)", q, k, u, r.steps, rho, ink)
						phat2 := bca.TopK(st, hm, ws, k)
						rho2 := st.RNorm + idx.StateSlack(st)
						ub2 := UpperBound(phat2, k, rho2)
						if rho2 < rho-ink-round {
							t.Errorf("%s: undecided mass fell to %g, below ρ − B", label, rho2)
						}
						if floor := UpperBound(phat, k, rho-ink); ub2 < floor-round {
							t.Errorf("%s: upper bound fell to %g, below UpperBound(p̂, k, ρ − B) = %g", label, ub2, floor)
						}
						if ceil := UpperBound(phat, k, ink); phat2[k-1] > ceil+round {
							t.Errorf("%s: p̂′(k) rose to %g, above UpperBound(p̂, k, B) = %g", label, phat2[k-1], ceil)
						}
						if prunedByLowerBound(puq, phat2[k-1], eng.tieTol) || rho2 == 0 || puq >= ub2-eng.tieTol {
							t.Errorf("%s: the skipped step decides the candidate (p_u(q)=%g, p̂′(k)=%g, UB′=%g)",
								label, puq, phat2[k-1], ub2)
						}
					}
				}
			}
			if deferred == 0 || moved == 0 || refined == 0 {
				t.Fatalf("nothing exercised: %d deferred, %d of them with ink to move, %d steps taken", deferred, moved, refined)
			}
			t.Logf("%d deferred (%d with ink the skipped step would have moved), %d steps taken", deferred, moved, refined)
		})
	}
}

// TestExplainMatchesQueryRefineAndFallbacks: Explain and Query share refine,
// so for every node they report the same membership, and Explain the same
// refinement steps and the same resort to the exact fallback as Query's run
// decides that node with, and every counter of Query's, timings aside — and
// they visit the same rows: all of them on a bare engine, the sparse screen
// through a View when the query's backward ball closes (two such queries join
// each family's list, and the first query that falls back).
func TestExplainMatchesQueryRefineAndFallbacks(t *testing.T) {
	const k = 10
	p := rwr.DefaultParams()
	sparse := 0
	for _, family := range []string{"web", "coauthor", "spam"} {
		g := oracle.Family(t, family).Graph
		idx := buildIndex(t, g, 20, 6)
		eng, err := NewEngine(g, idx, false)
		if err != nil {
			t.Fatal(err)
		}
		view, err := NewView(g, idx)
		if err != nil {
			t.Fatal(err)
		}
		queries := anytimeQueries(g.N())
		for q, closed := graph.NodeID(0), 0; int(q) < g.N() && closed < 2; q++ {
			if backwardReach(g, q, g.N()/8) != nil && !slices.Contains(queries, q) {
				queries = append(queries, q)
				closed++
			}
		}
		for q := graph.NodeID(0); int(q) < g.N(); q++ { // and the first query that falls back
			if _, st, err := eng.Query(q, k); err == nil && st.ExactFallbacks > 0 {
				if !slices.Contains(queries, q) {
					queries = append(queries, q)
				}
				break
			}
		}
		steps, fallbacks := 0, 0
		for _, q := range queries {
			ex, err := eng.Explain(q, k, true)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := rwr.ProximityToParallel(g, q, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Query's decision on each node alone — no recorder listening. A
			// screen of its own over the converged vector settles the same rows
			// as the run's (its tests are monotone-safe): a row it prunes is
			// out, a row it confirms is in (no steps, no fallback either way),
			// and a row it leaves open is the refinement sweep's, one candidate
			// at a time on the band Query's run stopped at. The iterate is
			// copied: a fallback's forward push reuses the run's push scratch.
			ref := &Screen{idx: idx, k: k, tol: eng.tieTol}
			ref.Advance(pq.Vector, 0)
			run, err := eng.start(q, k, false)
			if err == nil {
				err = run.Rounds(0)
			}
			if err != nil {
				t.Fatal(err)
			}
			x := slices.Clone(run.x)
			eng.nextRank = true
			for _, d := range ex.Decisions {
				hit, open := slices.Contains(ref.Hits(), d.Node), slices.Contains(ref.Survivors(), d.Node)
				if settled := d.Outcome == OutcomePruned || d.Outcome == OutcomeExactHit || d.Outcome == OutcomeUpperBoundHit; hit && open || settled == open {
					t.Errorf("%s q=%d u=%d: Explain says %+v, a fresh screen has the row hit=%v open=%v", family, q, d.Node, d, hit, open)
				}
				members, st := []graph.NodeID(nil), QueryStats{}
				if hit {
					members = []graph.NodeID{d.Node}
				} else if open {
					if members, err = eng.decideSet(q, x, run.shift, run.band, k, []graph.NodeID{d.Node}, &st); err != nil {
						t.Fatal(err)
					}
				}
				fell := 0
				if d.Outcome == OutcomeFallback {
					fell = 1
				}
				if d.InAnswer != (len(members) == 1) || d.RefineSteps != st.RefineSteps || fell != st.ExactFallbacks {
					t.Errorf("%s q=%d u=%d: Explain says %+v, Query's decision %v with %d steps and %d fallbacks",
						family, q, d.Node, d, members, st.RefineSteps, st.ExactFallbacks)
				}
				steps += d.RefineSteps
				fallbacks += fell
			}
			_, qst, err := eng.Query(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if untimed(ex.Stats) != untimed(qst) {
				t.Errorf("%s q=%d: Explain stats %+v, Query stats %+v", family, q, ex.Stats, qst)
			}
			if ex.Stats.Screened != qst.Screened || qst.Screened != g.N() {
				t.Errorf("%s q=%d: a bare engine's Explain screened %d rows and its Query %d of %d",
					family, q, ex.Stats.Screened, qst.Screened, g.N())
			}

			// Asked for the pruned rows too, the view's engine takes every row —
			// for that call only: the Query below is back on the view's table.
			pex, err := view.Explain(q, k, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			if pex.Stats.Screened != g.N() || !reflect.DeepEqual(pex.Decisions, ex.Decisions) {
				t.Errorf("%s q=%d: the view's Explain with pruned rows screened %d of %d rows or differs from the bare engine's", family, q, pex.Stats.Screened, g.N())
			}
			vex, err := view.Explain(q, k, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, vst, err := view.Query(q, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			if vst.Screened > vex.Stats.Screened {
				t.Errorf("%s q=%d: the view's Explain screened %d rows, its Query %d", family, q, vex.Stats.Screened, vst.Screened)
			}
			if vst.Screened < g.N() {
				sparse++
			}
			kept := slices.DeleteFunc(slices.Clone(ex.Decisions), func(d Decision) bool { return d.Outcome == OutcomePruned })
			if !reflect.DeepEqual(vex.Decisions, kept) {
				t.Errorf("%s q=%d: the view explains %+v, the dense sweep %+v", family, q, vex.Decisions, kept)
			}
		}
		if steps == 0 || fallbacks == 0 {
			t.Fatalf("%s: nothing exercised: %d refine steps, %d fallbacks", family, steps, fallbacks)
		}
	}
	if sparse == 0 {
		t.Fatal("no query was screened sparsely; Explain's sparse walk went untested")
	}
}

// TestFallbackSlabSingleSegmentAtAnyWorkers: a hub query — hundreds of
// candidates, most ending in the exact fallback — decided by engines of 1, 2
// and 4 workers gives the same answer and the same counters, forward
// iterations, ball iterations and early stops included. (A slab is one
// segment by construction: rwr has no row-sharded forward sweep.)
func TestFallbackSlabSingleSegmentAtAnyWorkers(t *testing.T) {
	const k = 10
	g, err := gen.WebGraph(700, 41) // three residual blocks: workers ≥ 2 split the PMPN rows
	if err != nil {
		t.Fatal(err)
	}
	idx := buildIndex(t, g, 20, 6)
	// In-degree 51: 288 of the 700 nodes are candidates and 169 fall back.
	const hubQ = graph.NodeID(19)

	var wantAnswer []graph.NodeID
	var want QueryStats
	for _, workers := range []int{1, 2, 4} {
		eng, err := NewEngine(g, idx, false)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetWorkers(workers)
		got, st, err := eng.Query(hubQ, k)
		if err != nil {
			t.Fatal(err)
		}
		st.Elapsed, st.PMPNElapsed, st.DecideElapsed, st.FallbackElapsed = 0, 0, 0, 0
		if workers == 1 {
			wantAnswer, want = got, st
			if st.ExactFallbacks <= spmmChunkWidth || st.FallbackEarlyStops == 0 {
				t.Fatalf("q=%d is no hub query: %+v", hubQ, st)
			}
		} else if !reflect.DeepEqual(got, wantAnswer) || st != want {
			t.Errorf("workers=%d: answer %v stats %+v, want %v %+v", workers, got, st, wantAnswer, want)
		}
	}
}
