package baseline

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rwr"
)

// baselineFamilies are the families the baselines' rows run on: one of each
// kind of weighting, and the family of exact ties.
var baselineFamilies = []string{"web", "skewed", "ties", "sinks"}

// TestIBFMatchesBruteForce is IBF's row of the oracle table.
func TestIBFMatchesBruteForce(t *testing.T) {
	for _, family := range baselineFamilies {
		tab := oracle.Family(t, family)
		g := tab.Graph
		ibf, err := BuildIBF(g, oracle.K, rwr.DefaultParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		oracle.Check(t, "IBF.Query", tab, ibf.Query)
		if ibf.BuildElapsed <= 0 {
			t.Error("no build time recorded")
		}
		if ibf.MemoryBytes() <= int64(g.N())*int64(g.N()) {
			t.Error("memory accounting implausible")
		}
	}
}

// TestFBFMatchesBruteForce is FBF's row of the oracle table.
func TestFBFMatchesBruteForce(t *testing.T) {
	for _, family := range baselineFamilies {
		tab := oracle.Family(t, family)
		g := tab.Graph
		fbf, err := BuildFBF(g, oracle.K, rwr.DefaultParams(), 2)
		if err != nil {
			t.Fatal(err)
		}
		oracle.Check(t, "FBF.Query", tab, fbf.Query)
		// FBF memory is K·n, far below IBF's n².
		if fbf.MemoryBytes() >= int64(g.N())*int64(g.N())*8 {
			t.Error("FBF memory should be far below IBF")
		}
	}
}

func TestValidation(t *testing.T) {
	g := oracle.Family(t, "web").Graph
	p := rwr.DefaultParams()
	if _, err := BuildIBF(g, 0, p, 1); err == nil {
		t.Error("want maxK error")
	}
	if _, err := BuildFBF(g, -1, p, 1); err == nil {
		t.Error("want maxK error")
	}
	ibf, err := BuildIBF(g, 5, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ibf.Query(graph.NodeID(g.N()), 3); err == nil {
		t.Error("want range error")
	}
	if _, err := ibf.Query(0, 6); err == nil {
		t.Error("want k error")
	}
	fbf, err := BuildFBF(g, 5, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fbf.Query(-1, 3); err == nil {
		t.Error("want range error")
	}
	if _, err := fbf.Query(0, 0); err == nil {
		t.Error("want k error")
	}
}
