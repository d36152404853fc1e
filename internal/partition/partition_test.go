package partition

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// evenBounds is the cut the removed range partitioner made: p near-equal
// ranges, the first n mod p of them one node longer.
func evenBounds(n, p int) []int32 {
	bounds := make([]int32, p+1)
	for s := 1; s <= p; s++ {
		bounds[s] = bounds[s-1] + int32(n/p)
		if s <= n%p {
			bounds[s]++
		}
	}
	return bounds
}

// buildMaps constructs a balanced map over the given shape and, as stored
// bounds, the near-equal cut and, for p ≥ 2, that cut with shard 0 owning
// nothing.
func buildMaps(t *testing.T, g *graph.Graph, p int) map[string]*Map {
	t.Helper()
	n := g.N()
	bal, err := NewBalanced(g, p)
	if err != nil {
		t.Fatalf("NewBalanced(%d,%d): %v", n, p, err)
	}
	maps := map[string]*Map{"balanced": bal}
	cuts := map[string][]int32{"range": evenBounds(n, p)}
	if p >= 2 {
		cuts["empty shard"] = append([]int32{0, 0}, cuts["range"][2:]...)
	}
	for name, bounds := range cuts {
		if maps[name], err = FromParts(n, p, bounds); err != nil {
			t.Fatalf("FromParts(%s): %v", name, err)
		}
	}
	return maps
}

// TestCoverageExactlyOnce is the partition correctness property: the shards'
// ranges tile [0, n) in shard order, so every node is assigned exactly once.
func TestCoverageExactlyOnce(t *testing.T) {
	g, err := gen.WebGraph(257, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 7, 16, 257} {
		for name, m := range buildMaps(t, g, p) {
			if err := m.Validate(); err != nil {
				t.Fatalf("%s P=%d: Validate: %v", name, p, err)
			}
			next := 0
			for s := 0; s < p; s++ {
				lo, hi := m.Range(s)
				if lo != next || hi < lo {
					t.Fatalf("%s P=%d shard %d: range [%d,%d) after %d", name, p, s, lo, hi, next)
				}
				next = hi
			}
			if next != g.N() {
				t.Errorf("%s P=%d: ranges end at %d, graph has %d nodes", name, p, next, g.N())
			}
		}
	}
}

// TestDeterminism rebuilds each map from its serialized parts, and the
// balanced one from scratch too; they must agree.
func TestDeterminism(t *testing.T) {
	g, err := gen.SocialGraph(300, 11)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range buildMaps(t, g, 5) {
		n, p, bounds := m.Parts()
		round, err := FromParts(n, p, bounds)
		if err != nil {
			t.Fatalf("%s: FromParts: %v", name, err)
		}
		if !m.Equal(round) {
			t.Errorf("%s: FromParts round trip differs", name)
		}
		if name != "balanced" {
			continue
		}
		again, err := NewBalanced(g, m.P())
		if err != nil {
			t.Fatalf("%s: rebuild: %v", name, err)
		}
		if !m.Equal(again) {
			t.Errorf("%s: rebuild differs from original", name)
		}
	}
}

// TestBalancedWeights checks the balanced cut actually bounds per-shard
// degree skew well below the near-equal node split's on a power-law graph.
func TestBalancedWeights(t *testing.T) {
	g, err := gen.SocialGraph(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	weight := func(m *Map, s int) float64 {
		var w float64
		lo, hi := m.Range(s)
		for u := graph.NodeID(lo); u < graph.NodeID(hi); u++ {
			w += float64(g.OutDegree(u) + g.InDegree(u))
		}
		return w
	}
	skew := func(m *Map) float64 {
		min, max := weight(m, 0), weight(m, 0)
		for s := 1; s < p; s++ {
			w := weight(m, s)
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
		return max / min
	}
	bal, err := NewBalanced(g, p)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := FromParts(g.N(), p, evenBounds(g.N(), p))
	if err != nil {
		t.Fatal(err)
	}
	if bs, rs := skew(bal), skew(rng); bs >= rs && bs > 1.5 {
		// Preferential attachment front-loads degree mass onto early ids,
		// so the plain range split must be visibly worse.
		t.Errorf("balanced skew %.2f not better than range skew %.2f", bs, rs)
	}
}

// TestGrow: growth extends the last shard's range over the new ids and
// leaves every other range as it was.
func TestGrow(t *testing.T) {
	g, err := gen.WebGraph(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range buildMaps(t, g, 3) {
		grown, err := m.Grow(120)
		if err != nil {
			t.Fatalf("%s: Grow: %v", name, err)
		}
		if grown.N() != 120 {
			t.Fatalf("%s: grown N=%d", name, grown.N())
		}
		if err := grown.Validate(); err != nil {
			t.Fatalf("%s: grown map invalid: %v", name, err)
		}
		for s := 0; s < 3; s++ {
			lo, hi := m.Range(s)
			if s == 2 {
				hi = 120
			}
			if glo, ghi := grown.Range(s); glo != lo || ghi != hi {
				t.Fatalf("%s shard %d: grown range [%d,%d), want [%d,%d)", name, s, glo, ghi, lo, hi)
			}
		}
		if _, err := m.Grow(50); err == nil {
			t.Errorf("%s: shrinking Grow accepted", name)
		}
	}
}

func TestShapeErrors(t *testing.T) {
	g, err := gen.WebGraph(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBalanced(g, 6); err == nil {
		t.Error("P > n accepted")
	}
	if _, err := NewBalanced(g, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := FromParts(0, 1, []int32{0, 0}); err == nil {
		t.Error("empty node set accepted")
	}
	if _, err := FromParts(10, 2, []int32{0, 4, 9}); err == nil {
		t.Error("bounds not ending at n accepted")
	}
	if _, err := FromParts(10, 2, []int32{0, 6, 5, 10}); err == nil {
		t.Error("bounds of the wrong count accepted")
	}
	if _, err := FromParts(10, 2, []int32{0, 11, 10}); err == nil {
		t.Error("decreasing bounds accepted")
	}
}
