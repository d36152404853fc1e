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
// PMPN elementwise — est ≤ x* ≤ est + max r, up to x*'s own ε(1−α)/α — with
// every residue under r_max, +0 estimates outside Touched, and Edges the
// in-degrees of the rows pushed. One Push serves every run, so each Start
// resets through the previous touched list (and grows for the applied
// graph's new node). A run cut by its edge budget holds the bracket too, and
// the next Run finishes it.
func TestPushBracketsProximityTo(t *testing.T) {
	p := rwr.DefaultParams()
	slack := p.Eps*(1-p.Alpha)/p.Alpha + 1e-15
	push := rwr.NewPush(0)
	cut := 0
	check := func(label string, g *graph.Graph, x []float64, rmax float64) {
		t.Helper()
		est, width := push.Est(), push.MaxResidual()
		if rmax > 0 && width >= rmax {
			t.Fatalf("%s: max residue %g not under r_max %g", label, width, rmax)
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
				if err != nil {
					t.Fatal(err)
				}
				for _, rmax := range []float64{1e-2, 1e-4, 1e-6} {
					label := fmt.Sprintf("%s q=%d r_max=%g", tab.Name, q, rmax)
					if err := push.Start(g, q, p); err != nil {
						t.Fatal(err)
					}
					if !push.Run(rmax, g.M()/4) {
						cut++
						check(label+" (cut)", g, exact.Vector, 0)
						if !push.Run(rmax, math.MaxInt) {
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
// one push of q reads q's in-degree — and Start refuses what NewToStepper
// refuses.
func TestPushEdgesAndErrors(t *testing.T) {
	g := oracle.Family(t, "web").Graph
	p := rwr.DefaultParams()
	push := rwr.NewPush(g.N())
	q := graph.NodeID(3)
	if err := push.Start(g, q, p); err != nil {
		t.Fatal(err)
	}
	// r_max just under q's unit residue pushes q alone: its in-neighbours
	// receive at most (1−α) of it.
	if !push.Run(1-p.Alpha/2, math.MaxInt) || push.Edges() != g.InDegree(q) {
		t.Fatalf("one push of q read %d edges, q has %d in-edges", push.Edges(), g.InDegree(q))
	}
	if est := push.Est()[q]; est != p.Alpha {
		t.Fatalf("est[q] = %g after one push, want α = %g", est, p.Alpha)
	}
	if err := push.Start(g, -1, p); err == nil {
		t.Error("negative node accepted")
	}
	if err := push.Start(g, graph.NodeID(g.N()), p); err == nil {
		t.Error("node past the graph accepted")
	}
	if err := push.Start(g, 0, rwr.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}
