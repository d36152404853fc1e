package rwr_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rwr"
)

// TestPushBracketsProximityTo: on every oracle family, as built and as its
// edit batch patches it (one node grown), at the table's query nodes and
// r_max from 1e-2 down to 1e-6, the backward push brackets the converged
// PMPN elementwise — est ≤ x* ≤ est + max r, up to x*'s own ε(1−α)/α — and
// the forward push from the same node brackets its converged proximity
// vector p_u — est ≤ x* ≤ est + ‖r‖₁ — with every residue under r_max, +0
// estimates outside Touched, and Edges the in-degrees (out-degrees) of the
// rows pushed. One Push serves every run in both directions, so each Start
// resets through the previous touched list (and grows for the applied
// graph's new node). A run cut by its edge budget holds the bracket too, and
// the next Run finishes it.
func TestPushBracketsProximityTo(t *testing.T) {
	push := rwr.NewPush(0)
	for _, forward := range []bool{false, true} {
		pushBrackets(t, push, forward)
	}
}

func pushBrackets(t *testing.T, push *rwr.Push, forward bool) {
	p := rwr.DefaultParams()
	slack := p.Eps*(1-p.Alpha)/p.Alpha + 1e-15
	cut := 0
	check := func(label string, g *graph.Graph, x []float64, rmax float64) {
		t.Helper()
		est, width := push.Est(), push.MaxResidual()
		if rmax > 0 && width >= rmax {
			t.Fatalf("%s: max residue %g not under r_max %g", label, width, rmax)
		}
		if forward {
			width = push.ResidualL1()
		}
		touched := make([]bool, g.N())
		for _, u := range push.Touched() {
			touched[u] = true
		}
		for u, xu := range x {
			if !touched[u] && est[u] != 0 {
				t.Fatalf("%s: row %d is not touched but has estimate %g", label, u, est[u])
			}
			if est[u] > xu+slack || xu > est[u]+width+slack {
				t.Fatalf("%s: p_%d(q) = %.17g outside [%.17g, %.17g]", label, u, xu, est[u], est[u]+width)
			}
		}
	}
	for _, family := range oracle.Families() {
		base := oracle.Family(t, family)
		for _, tab := range []*oracle.Table{base, base.Applied(t)} {
			g := tab.Graph
			for _, q := range tab.Queries {
				exact, err := rwr.ProximityTo(g, q, p)
				if forward {
					exact, err = rwr.ProximityVector(g, q, p)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, rmax := range []float64{1e-2, 1e-4, 1e-6} {
					label := fmt.Sprintf("%s forward=%v q=%d r_max=%g", tab.Name, forward, q, rmax)
					if err := push.Start(g, q, p, forward); err != nil {
						t.Fatal(err)
					}
					if !push.Run(rmax, g.M()/4, g.N()) {
						cut++
						check(label+" (cut)", g, exact.Vector, 0)
						if !push.Run(rmax, math.MaxInt, g.N()) {
							t.Fatalf("%s: an unbounded run stopped", label)
						}
					}
					check(label, g, exact.Vector, rmax)
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("no run reached its edge budget: the cut path went untested")
	}
}

// TestPushEdgesAndErrors: Edges counts the in-edges of every row pushed —
// one push of q reads q's in-degree, one forward push its out-degree — a run
// stops once more than its rows cap are touched, and Start refuses what
// NewToStepper refuses.
func TestPushEdgesAndErrors(t *testing.T) {
	g := oracle.Family(t, "web").Graph
	p := rwr.DefaultParams()
	push := rwr.NewPush(g.N())
	q := graph.NodeID(3)
	if err := push.Start(g, q, p, false); err != nil {
		t.Fatal(err)
	}
	// r_max just under q's unit residue pushes q alone: its in-neighbours
	// receive at most (1−α) of it.
	if !push.Run(1-p.Alpha/2, math.MaxInt, g.N()) || push.Edges() != g.InDegree(q) {
		t.Fatalf("one push of q read %d edges, q has %d in-edges", push.Edges(), g.InDegree(q))
	}
	if est := push.Est()[q]; est != p.Alpha {
		t.Fatalf("est[q] = %g after one push, want α = %g", est, p.Alpha)
	}
	if err := push.Start(g, q, p, true); err != nil {
		t.Fatal(err)
	}
	if !push.Run(1-p.Alpha/2, math.MaxInt, g.N()) || push.Edges() != g.OutDegree(q) || push.Est()[q] != p.Alpha {
		t.Fatalf("one forward push of q read %d edges (q has %d out-edges) and left est[q] = %g", push.Edges(), g.OutDegree(q), push.Est()[q])
	}
	// q's first push touches its out-neighbours, more than a cap of one row.
	if err := push.Start(g, q, p, true); err != nil {
		t.Fatal(err)
	}
	if push.Run(1e-6, math.MaxInt, 1) || push.Edges() != g.OutDegree(q) {
		t.Fatalf("a run capped at one touched row read %d edges, want q's %d out-edges and a stop", push.Edges(), g.OutDegree(q))
	}
	if err := push.Start(g, -1, p, false); err == nil {
		t.Error("negative node accepted")
	}
	if err := push.Start(g, graph.NodeID(g.N()), p, true); err == nil {
		t.Error("node past the graph accepted")
	}
	if err := push.Start(g, 0, rwr.Params{}, false); err == nil {
		t.Error("invalid params accepted")
	}
}
