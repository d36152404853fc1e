package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

func anytimeQueries(n int) []graph.NodeID {
	qs := []graph.NodeID{0, graph.NodeID(n / 3), graph.NodeID(n / 2), graph.NodeID(2 * n / 3), graph.NodeID(n - 1)}
	return qs
}

func idSet(ids []graph.NodeID) map[graph.NodeID]bool {
	m := make(map[graph.NodeID]bool, len(ids))
	for _, u := range ids {
		m[u] = true
	}
	return m
}

// checkContainment asserts guaranteed ⊆ exact ⊆ guaranteed ∪ maybe.
func checkContainment(t *testing.T, label string, guaranteed, maybe, exact []graph.NodeID) {
	t.Helper()
	inExact := idSet(exact)
	cover := idSet(guaranteed)
	for _, u := range maybe {
		cover[u] = true
	}
	for _, u := range guaranteed {
		if !inExact[u] {
			t.Fatalf("%s: guaranteed node %d not in exact answer %v", label, u, exact)
		}
	}
	for _, u := range exact {
		if !cover[u] {
			t.Fatalf("%s: exact node %d in neither guaranteed %v nor maybe %v", label, u, guaranteed, maybe)
		}
	}
}

// TestAnytimeContainmentAcrossFamilies is the (ε, δ=0) oracle: across graph
// families, k and the full eps sweep, the two-part answer must bracket the
// brute-force answer, meet the budget whenever it did not stop on
// convergence, and shrink its maybe set monotonically as eps tightens
// (a later stop can only decide more nodes, never resurrect one).
func TestAnytimeContainmentAcrossFamilies(t *testing.T) {
	epsSweep := []float64{0.5, 0.2, 0.05, 0}
	for _, family := range []string{"web", "coauthor", "spam"} {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			g := oracleGraph(t, family)
			idx := buildIndex(t, g, 20, 6)
			view, err := NewView(g, idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{3, 10} {
				for _, q := range anytimeQueries(g.N()) {
					exact, err := BruteForce(g, q, k, idx.Options().RWR, 4)
					if err != nil {
						t.Fatal(err)
					}
					prevMaybe := map[graph.NodeID]bool(nil)
					for _, eps := range epsSweep {
						res, err := view.QueryAnytime(q, k, AnytimeOptions{Eps: eps}, 2)
						if err != nil {
							t.Fatal(err)
						}
						label := family
						checkContainment(t, label, res.Guaranteed, res.Maybe, exact)
						if !res.Stats.Converged && res.Stats.EpsAchieved > eps {
							t.Fatalf("%s k=%d q=%d eps=%g: budget missed without convergence (achieved %g)",
								family, k, q, eps, res.Stats.EpsAchieved)
						}
						und := len(res.Maybe)
						tot := len(res.Guaranteed) + und
						want := 0.0
						if und > 0 {
							want = float64(und) / float64(tot)
						}
						if math.Abs(res.Stats.EpsAchieved-want) > 1e-12 {
							t.Fatalf("%s: EpsAchieved=%g but |maybe|/(total)=%g", family, res.Stats.EpsAchieved, want)
						}
						// eps decreases through the sweep, so each maybe set must
						// be a subset of the previous (looser) one.
						if prevMaybe != nil {
							for _, u := range res.Maybe {
								if !prevMaybe[u] {
									t.Fatalf("%s k=%d q=%d eps=%g: maybe node %d absent at looser eps",
										family, k, q, eps, u)
								}
							}
						}
						prevMaybe = idSet(res.Maybe)
						if eps == 0 && len(res.Maybe) > 0 && !res.Stats.Converged {
							t.Fatalf("%s: eps=0 stopped before convergence with %d undecided", family, len(res.Maybe))
						}
					}
				}
			}
		})
	}
}

// TestAnytimeEscalateMatchesColdQuery is the warm-start oracle: resolving a
// partial anytime run exactly must give the SAME answer as a cold exact
// query and every one of its counters, at any worker count, wherever the
// budget stopped the rounds. Every family must escalate runs that stopped on
// their budget with rows still open, the warm start proper. Two query nodes per family
// close their backward ball, where the cold query's screen takes a handful of
// rows: so does the escalated one's if its first screening came at
// convergence, and every row if it came earlier.
func TestAnytimeEscalateMatchesColdQuery(t *testing.T) {
	sparse := 0
	for _, family := range []string{"web", "coauthor", "spam"} {
		budgetStopped := 0
		g := oracleGraph(t, family)
		idx := buildIndex(t, g, 20, 6)
		view, err := NewView(g, idx)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewView(g, idx.Clone())
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
		for _, q := range queries {
			want, wst, err := view.Query(q, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []AnytimeOptions{
				{Eps: 0.5},
				{Eps: 0.3},
				{Eps: 0},
			} {
				for _, workers := range []int{1, 3, 4} {
					label := fmt.Sprintf("%s q=%d eps=%g w=%d", family, q, opts.Eps, workers)
					res, err := view.QueryAnytime(q, 10, opts, workers)
					if err != nil {
						t.Fatal(err)
					}
					// Finish refuses a run stopped on its budget with rows open, and
					// another view's screen.
					if open := res.screen.Survivors(); len(open) > 0 && !res.Stats.Converged {
						budgetStopped++
						if _, _, err := view.Finish(res.run, res.screen, workers); err == nil {
							t.Fatalf("%s: Finish accepted a run %d rows short of decided", label, len(open))
						}
					}
					got, stats, err := res.Escalate(workers)
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := other.Finish(res.run, res.screen, workers); err == nil {
						t.Fatalf("%s: Finish accepted another view's screen", label)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: escalated %v, cold %v", label, got, want)
					}
					if stats.Results != len(got) {
						t.Fatalf("stats.Results=%d, answer has %d", stats.Results, len(got))
					}
					if sweepCounters(stats) != sweepCounters(wst) {
						t.Fatalf("%s: escalated run counted %+v, cold query %+v", label, stats, wst)
					}
					screened := g.N()
					if res.Stats.Rounds == 1 && res.Stats.Converged {
						screened = wst.Screened
					}
					if stats.Screened != screened || stats.PMPNElapsed <= 0 {
						t.Fatalf("%s: escalated run screened %d rows with %v of PMPN, want %d rows (cold: %d) and a PMPN phase; anytime stats %+v",
							label, stats.Screened, stats.PMPNElapsed, screened, wst.Screened, res.Stats)
					}
					if stats.Screened < g.N() {
						sparse++
					}
					if _, _, err := res.Escalate(workers); err == nil {
						t.Fatal("second Escalate accepted")
					}
				}
			}
		}
		if budgetStopped == 0 {
			t.Fatalf("%s: no escalated run had stopped on its budget with rows open", family)
		}
	}
	if sparse == 0 {
		t.Fatal("no escalated run took a closed ball's rows: the lazy screen went untested")
	}
}

// TestAnytimeConcurrent hammers one shared view with interleaved exact and
// anytime queries; under -race this is the data-race harness for the
// approx/exact serving mix, and every concurrent answer must equal its
// sequential counterpart.
func TestAnytimeConcurrent(t *testing.T) {
	g := oracleGraph(t, "web")
	idx := buildIndex(t, g, 20, 6)
	view, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	queries := anytimeQueries(g.N())
	wantExact := make([][]graph.NodeID, len(queries))
	wantG := make([][]graph.NodeID, len(queries))
	wantM := make([][]graph.NodeID, len(queries))
	opts := AnytimeOptions{Eps: 0.1}
	for i, q := range queries {
		if wantExact[i], _, err = view.Query(q, 10, 1); err != nil {
			t.Fatal(err)
		}
		res, err := view.QueryAnytime(q, 10, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantG[i], wantM[i] = res.Guaranteed, res.Maybe
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for rep := 0; rep < 4; rep++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q graph.NodeID, approx bool) {
				defer wg.Done()
				if approx {
					res, err := view.QueryAnytime(q, 10, opts, 2)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Guaranteed, wantG[i]) || !reflect.DeepEqual(res.Maybe, wantM[i]) {
						t.Errorf("q=%d: concurrent anytime diverged", q)
					}
				} else {
					got, _, err := view.Query(q, 10, 2)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, wantExact[i]) {
						t.Errorf("q=%d: concurrent exact diverged", q)
					}
				}
			}(i, q, rep%2 == 0)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAnytimeValidation covers the option and parameter guard rails.
func TestAnytimeValidation(t *testing.T) {
	g := toyGraph(t)
	idx := buildIndex(t, g, 5, 2)
	view, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    graph.NodeID
		k    int
		opts AnytimeOptions
	}{
		{"negative q", -1, 3, AnytimeOptions{}},
		{"q out of range", graph.NodeID(g.N()), 3, AnytimeOptions{}},
		{"k=0", 0, 0, AnytimeOptions{}},
		{"k beyond index", 0, idx.K() + 1, AnytimeOptions{}},
		{"eps=1", 0, 3, AnytimeOptions{Eps: 1}},
		{"eps<0", 0, 3, AnytimeOptions{Eps: -0.1}},
		{"eps NaN", 0, 3, AnytimeOptions{Eps: math.NaN()}},
	} {
		if _, err := view.QueryAnytime(tc.q, tc.k, tc.opts, 1); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
