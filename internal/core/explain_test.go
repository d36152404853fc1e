package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestExplainMatchesQuery: Explain is Query's run with the decisions written
// down — on a no-update engine and on an update-mode one, whose Query commits
// what it refines and solves while its Explain leaves the index as it found it
// and still decides every row, fallbacks included, the way that Query does.
func TestExplainMatchesQuery(t *testing.T) {
	g := toyGraph(t)
	for _, update := range []bool{false, true} {
		idx := buildIndex(t, g, 3, 1)
		eng, err := NewEngine(g, idx, update)
		if err != nil {
			t.Fatal(err)
		}
		fallbacks := 0
		for q := graph.NodeID(0); int(q) < g.N(); q++ {
			before := idx.Refinements()
			ex, err := eng.Explain(q, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := idx.Refinements(); got != before {
				t.Errorf("update=%t q=%d: Explain committed %d refinements", update, q, got-before)
			}
			var fromExplain []graph.NodeID
			for _, d := range ex.Decisions {
				if d.InAnswer {
					fromExplain = append(fromExplain, d.Node)
				}
				if d.Outcome == OutcomeFallback {
					fallbacks++
				}
			}
			want, stats, err := eng.Query(q, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromExplain, want) {
				t.Errorf("update=%t q=%d: explain answers %v, query answers %v", update, q, fromExplain, want)
			}
			if ex.Stats.ExactFallbacks != stats.ExactFallbacks || ex.Stats.RefineSteps != stats.RefineSteps {
				t.Errorf("update=%t q=%d: Explain took %d steps and %d fallbacks, Query %d and %d",
					update, q, ex.Stats.RefineSteps, ex.Stats.ExactFallbacks, stats.RefineSteps, stats.ExactFallbacks)
			}
			// Both drivers report the support of p_·(q): the decisions with any
			// proximity to q at all.
			reach := 0
			for _, d := range ex.Decisions {
				if d.Proximity != 0 {
					reach++
				}
			}
			if stats.PMPNSupport != reach || ex.Stats.PMPNSupport != reach {
				t.Errorf("q=%d: PMPNSupport %d from Query, %d from Explain, %d nodes reach q",
					q, stats.PMPNSupport, ex.Stats.PMPNSupport, reach)
			}
			// With includePruned, every node gets a decision.
			if len(ex.Decisions) != g.N() {
				t.Errorf("q=%d: %d decisions, want %d", q, len(ex.Decisions), g.N())
			}
		}
		if fallbacks == 0 {
			t.Fatalf("update=%t: no decision fell back to the exact solve; the fallback rows went untested", update)
		}
		if update && idx.Refinements() == 0 {
			t.Fatal("the update-mode engine's queries committed nothing")
		}
	}
}

func TestExplainExcludesPrunedByDefault(t *testing.T) {
	g := toyGraph(t)
	idx := buildIndex(t, g, 3, 1)
	eng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.Explain(0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ex.Decisions {
		if d.Outcome == OutcomePruned {
			t.Errorf("pruned decision present without includePruned: %+v", d)
		}
	}
}

func TestExplainReadOnly(t *testing.T) {
	g := toyGraph(t)
	idx := buildIndex(t, g, 3, 1)
	eng, err := NewEngine(g, idx, true) // update mode on purpose
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Explain(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if idx.Refinements() != 0 {
		t.Errorf("Explain committed %d refinements", idx.Refinements())
	}
}

func TestExplainValidationAndRender(t *testing.T) {
	g := toyGraph(t)
	idx := buildIndex(t, g, 3, 1)
	eng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Explain(-1, 2, false); err == nil {
		t.Error("want range error")
	}
	if _, err := eng.Explain(0, 9, false); err == nil {
		t.Error("want k error")
	}
	ex, err := eng.Explain(1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExplanation(&buf, ex); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "reverse top-2 of node 1") {
		t.Errorf("render missing header: %q", out)
	}
	for _, o := range []Outcome{OutcomePruned, OutcomeExactHit, OutcomeUpperBoundHit, OutcomeRefinedIn, OutcomeRefinedOut, OutcomeFallback, Outcome(99)} {
		if o.String() == "" {
			t.Error("empty outcome name")
		}
	}
}
