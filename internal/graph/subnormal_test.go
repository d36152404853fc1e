package graph

import (
	"math"
	"strings"
	"testing"
)

// TestBuilderRejectsSubnormalWeights: a weight below MinNormalWeight would
// produce a normalizer whose reciprocal overflows to +Inf, so Build refuses
// it outright.
func TestBuilderRejectsSubnormalWeights(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 5e-324) // smallest subnormal
	b.AddWeightedEdge(1, 0, 1)
	if _, _, err := b.Build(DanglingSelfLoop); err == nil || !strings.Contains(err.Error(), "subnormal") {
		t.Fatalf("Build accepted a subnormal weight: err=%v", err)
	}

	// The smallest *normal* weight is fine, and its inverse is finite.
	b2 := NewBuilder(2)
	b2.AddWeightedEdge(0, 1, MinNormalWeight)
	b2.AddWeightedEdge(1, 0, 1)
	g, _, err := b2.Build(DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if inv := g.InvTotalOutWeight(0); math.IsInf(inv, 0) || math.IsNaN(inv) {
		t.Fatalf("inverse normalizer of minimum normal weight not finite: %g", inv)
	}
}

// TestApplyRejectsSubnormalWeights: the edit path enforces the same guard
// as the full build.
func TestApplyRejectsSubnormalWeights(t *testing.T) {
	g, err := FromEdges(2, [][2]NodeID{{0, 1}, {1, 0}}, DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if g2, err := g.Apply([]EdgeEdit{{From: 0, To: 0, Weight: 1e-310}}); err == nil || g2 != nil || !strings.Contains(err.Error(), "subnormal") {
		t.Fatalf("Apply accepted a subnormal weight: err=%v", err)
	}
	// Receiver unchanged, normalizers still finite.
	if inv := g.InvTotalOutWeight(0); inv != 1 {
		t.Fatalf("receiver mutated: InvTotalOutWeight(0) = %g, want 1", inv)
	}
	// The smallest normal weight is accepted, and its inverse is finite.
	g2, err := g.Apply([]EdgeEdit{{From: 0, To: 1, Remove: true}, {From: 0, To: 1, Weight: MinNormalWeight}})
	if err != nil {
		t.Fatal(err)
	}
	if inv := g2.InvTotalOutWeight(0); math.IsInf(inv, 0) || math.IsNaN(inv) {
		t.Fatalf("inverse normalizer of minimum normal weight not finite: %g", inv)
	}
}
