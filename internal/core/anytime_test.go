package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
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

// TestAnytimeContainmentAcrossFamilies is the View.QueryAnytime row of the
// oracle table: across its families, its query nodes and k, and the full eps
// sweep, the two-part answer must bracket the brute-force answer, meet the
// budget whenever it did not stop on convergence or a final screen, and shrink
// its maybe set monotonically as eps tightens (a later stop can only decide
// more nodes, never resurrect one).
func TestAnytimeContainmentAcrossFamilies(t *testing.T) {
	epsSweep := []float64{0.5, 0.2, 0.05, 0}
	for _, family := range []string{"web", "coauthor", "spam"} {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			tab := oracle.Family(t, family)
			view, err := NewView(tab.Graph, tab.Index(t))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range tab.Ks {
				for _, q := range tab.Queries {
					exact := tab.Want(q, k)
					prevMaybe := map[graph.NodeID]bool(nil)
					for _, eps := range epsSweep {
						res, err := view.QueryAnytime(q, k, AnytimeOptions{Eps: eps}, 2)
						if err != nil {
							t.Fatal(err)
						}
						if err := oracle.Brackets(res.Guaranteed, res.Maybe, exact); err != nil {
							t.Fatalf("%s k=%d q=%d eps=%g: %v", family, k, q, eps, err)
						}
						if !res.Stats.Converged && !res.Stats.Final && res.Stats.EpsAchieved > eps {
							t.Fatalf("%s k=%d q=%d eps=%g: budget missed without convergence or a final screen (achieved %g)",
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
						// An unconverged stop with rows open met its budget or
						// left every open row final; at eps = 0 it cannot have
						// met the budget.
						if eps == 0 && len(res.Maybe) > 0 && !res.Stats.Converged && !res.Stats.Final {
							t.Fatalf("%s: eps=0 stopped before convergence with %d undecided, not final", family, len(res.Maybe))
						}
					}
				}
			}
		})
	}
}

// TestAnytimeFinishRefusals: View.Finish refuses a run its rounds stopped on
// the anytime budget with rows still open that are not final, and another
// view's screen; over an exact run (stopped final, converged or with nothing
// open) and its own screen it gives the cold query's answer.
func TestAnytimeFinishRefusals(t *testing.T) {
	for _, family := range []string{"web", "coauthor", "spam"} {
		budgetStopped := 0
		g := oracle.Family(t, family).Graph
		idx := buildIndex(t, g, 20, 6)
		view, err := NewView(g, idx)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewView(g, idx.Clone())
		if err != nil {
			t.Fatal(err)
		}
		run := func(q graph.NodeID, eps float64) (*Run, *Screen) {
			s, err := view.NewScreen(10)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRun(g, q, idx.Options().RWR, 1, nil, s)
			if err == nil {
				err = r.Rounds(eps)
			}
			if err != nil {
				t.Fatal(err)
			}
			return r, s
		}
		for _, q := range anytimeQueries(g.N()) {
			label := fmt.Sprintf("%s q=%d", family, q)
			for _, eps := range []float64{0.5, 0.3} {
				r, s := run(q, eps)
				if st := r.Stats(); len(s.Survivors()) > 0 && !st.Converged && !st.Final {
					budgetStopped++
					if _, _, err := view.Finish(r, s, 1); err == nil {
						t.Fatalf("%s eps=%g: Finish accepted a run %d rows short of decided", label, eps, len(s.Survivors()))
					}
				}
			}
			r, s := run(q, 0)
			if _, _, err := other.Finish(r, s, 1); err == nil {
				t.Fatalf("%s: Finish accepted another view's screen", label)
			}
			got, _, err := view.Finish(r, s, 1)
			if err != nil {
				t.Fatalf("%s: Finish over an exact run: %v", label, err)
			}
			want, _, err := view.Query(q, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: finished %v, cold %v", label, got, want)
			}
		}
		if budgetStopped == 0 {
			t.Fatalf("%s: no run stopped on its budget with rows open", family)
		}
	}
}

// TestAnytimeConcurrent hammers one shared view with interleaved exact and
// anytime queries; under -race this is the data-race harness for the
// approx/exact serving mix, and every concurrent answer must equal its
// sequential counterpart.
func TestAnytimeConcurrent(t *testing.T) {
	g := oracle.Family(t, "web").Graph
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
