package evolve

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// This file holds the differential suite between the two ways an edit batch
// is applied: the rebuild through graph.Builder (ApplyEdits, the reference
// semantics) and the CSR patch (graph.Graph.Apply, what the serving
// pipeline uses). Over random graphs and random edit sequences the two must
// agree on errors, and on success give graphs that are reflect.DeepEqual —
// adjacency, weights, normalizers, the in-mirror and the degree order — and
// that Validate accepts.

// canonicalDump renders a graph as a deterministic text form — one line per
// node with out/in adjacency and weights, plus header counts — to show
// where two graphs differ.
func canonicalDump(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d\n", g.N(), g.M())
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		fmt.Fprintf(&b, "%d tw=%b out", u, g.TotalOutWeight(u))
		ws := g.OutWeightsOf(u)
		for i, x := range g.OutNeighbors(u) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			fmt.Fprintf(&b, " %d:%b", x, w)
		}
		b.WriteString(" in")
		iws := g.InWeightsOf(u)
		for i, x := range g.InNeighbors(u) {
			w := 1.0
			if iws != nil {
				w = iws[i]
			}
			fmt.Fprintf(&b, " %d:%b", x, w)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// applyBothWays applies edits to g through ApplyEdits and through
// Graph.Apply. It fails the test unless both succeed or both fail, and,
// when they succeed, unless their graphs are DeepEqual and valid. It
// returns the new graph, or nil when the batch was refused.
func applyBothWays(t *testing.T, label string, g *graph.Graph, edits []Edit) *graph.Graph {
	t.Helper()
	rebuilt, errA := ApplyEdits(g, edits, graph.DanglingSelfLoop)
	applied, errB := g.Apply(edits)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: error parity broken: rebuild=%v apply=%v (edits %v)", label, errA, errB, edits)
	}
	if errA != nil {
		return nil
	}
	if err := applied.Validate(); err != nil {
		t.Fatalf("%s: applied graph invalid: %v (edits %v)", label, err, edits)
	}
	if !reflect.DeepEqual(rebuilt, applied) {
		t.Fatalf("%s (edits %v): Apply diverged from the rebuild:\n--- rebuild\n%s--- apply\n%s",
			label, edits, canonicalDump(rebuilt), canonicalDump(applied))
	}
	return applied
}

func diffTestGraph(t testing.TB, n int, seed int64, weighted bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if weighted {
			b.AddWeightedEdge(u, v, 0.5+rng.Float64()*3)
		} else {
			b.AddEdge(u, v)
		}
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomBatch draws a batch of edits against the current graph: removals of
// existing edges, inserts of missing edges (sometimes weighted, sometimes
// growing the node set), plus remove+insert weight changes. About one
// batch in eight is deliberately INVALID (removing a missing edge or
// inserting a duplicate) to exercise error parity.
func randomBatch(rng *rand.Rand, v *graph.Graph, size int) []Edit {
	var edits []Edit
	seen := map[[2]graph.NodeID]int{} // 1 removed, 2 added
	n := v.N()
	for len(edits) < size {
		switch rng.Intn(8) {
		case 0, 1, 2: // remove an existing edge
			u := graph.NodeID(rng.Intn(n))
			if v.OutDegree(u) == 0 {
				continue
			}
			nbrs := v.OutNeighbors(u)
			to := nbrs[rng.Intn(len(nbrs))]
			if seen[[2]graph.NodeID{u, to}] != 0 {
				continue
			}
			seen[[2]graph.NodeID{u, to}] = 1
			edits = append(edits, Edit{From: u, To: to, Remove: true})
		case 3, 4, 5: // insert a missing edge
			u, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if v.HasEdge(u, to) || seen[[2]graph.NodeID{u, to}] != 0 {
				continue
			}
			var w float64
			if rng.Intn(2) == 0 {
				w = 0.25 + rng.Float64()*4
			}
			seen[[2]graph.NodeID{u, to}] = 2
			edits = append(edits, Edit{From: u, To: to, Weight: w})
		case 6: // weight change: remove + insert
			u := graph.NodeID(rng.Intn(n))
			if v.OutDegree(u) == 0 {
				continue
			}
			nbrs := v.OutNeighbors(u)
			to := nbrs[rng.Intn(len(nbrs))]
			if seen[[2]graph.NodeID{u, to}] != 0 {
				continue
			}
			seen[[2]graph.NodeID{u, to}] = 2
			edits = append(edits,
				Edit{From: u, To: to, Remove: true},
				Edit{From: u, To: to, Weight: 1 + rng.Float64()*2})
		case 7: // grow the graph by an edge touching a new node
			u := graph.NodeID(rng.Intn(n))
			to := graph.NodeID(n + rng.Intn(3))
			if seen[[2]graph.NodeID{u, to}] != 0 {
				continue
			}
			seen[[2]graph.NodeID{u, to}] = 2
			if rng.Intn(2) == 0 {
				u, to = to, u
			}
			edits = append(edits, Edit{From: u, To: to})
		}
	}
	return edits
}

// invalidBatch produces a batch that must fail on both implementations.
func invalidBatch(rng *rand.Rand, v *graph.Graph) []Edit {
	n := v.N()
	if rng.Intn(2) == 0 {
		// Remove a missing edge.
		for tries := 0; tries < 100; tries++ {
			u, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if !v.HasEdge(u, to) {
				return []Edit{{From: u, To: to, Remove: true}}
			}
		}
	}
	// Duplicate insert of an existing edge.
	for tries := 0; tries < 100; tries++ {
		u := graph.NodeID(rng.Intn(n))
		if v.OutDegree(u) > 0 {
			nbrs := v.OutNeighbors(u)
			return []Edit{{From: u, To: nbrs[rng.Intn(len(nbrs))]}}
		}
	}
	return []Edit{{From: 0, To: 0, Weight: -1}}
}

// TestApplyMatchesApplyEdits is the main differential check: random edit
// batches — removals, weighted and unweighted inserts, weight changes by
// remove-then-insert, node growth — chained through both implementations
// give DeepEqual, valid graphs at every step, and both refuse every fourth
// batch, drawn invalid.
func TestApplyMatchesApplyEdits(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		seed     int64
		weighted bool
	}{
		{"unweighted-small", 25, 1, false},
		{"unweighted-mid", 80, 2, false},
		{"weighted-small", 25, 3, true},
		{"weighted-mid", 60, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := diffTestGraph(t, tc.n, tc.seed, tc.weighted)
			n0 := g.N()
			rng := rand.New(rand.NewSource(tc.seed * 77))
			for batch := 0; batch < 12; batch++ {
				label := fmt.Sprintf("batch %d", batch)
				if batch%4 == 3 {
					if applyBothWays(t, label, g, invalidBatch(rng, g)) != nil {
						t.Fatalf("%s: invalid batch accepted", label)
					}
					continue
				}
				edits := randomBatch(rng, g, 3+rng.Intn(5))
				if batch%4 == 1 { // grow by two nodes, whatever the draw
					edits = append(edits, Edit{From: graph.NodeID(rng.Intn(g.N())), To: graph.NodeID(g.N() + 1)})
				}
				if next := applyBothWays(t, label, g, edits); next != nil {
					g = next
				}
			}
			if g.N() == n0 {
				t.Errorf("no batch grew the graph past %d nodes", n0)
			}
		})
	}
}

// FuzzApply drives the differential check from fuzzer-chosen bytes: each
// byte pair encodes one edit against a small fixed graph, applied both ways
// one edit per batch, and then every edit in one batch against the original
// graph, which nets removals against inserts of the same edge.
func FuzzApply(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x45, 0x67})
	f.Add([]byte{0xff, 0x00, 0x10, 0x81, 0x22, 0x9c})
	f.Add([]byte{0x07, 0x70, 0x33, 0x33, 0x12, 0x21, 0x44, 0x99})
	f.Add([]byte{0x10, 0x01, 0x10, 0x40, 0x9f, 0x06})
	f.Add([]byte{0x20, 0x40, 0x20, 0x01}) // 0→2 weighing 2, then removed: unweighted again
	f.Fuzz(func(t *testing.T, data []byte) {
		g0, _ := graph.FromEdges(8, [][2]graph.NodeID{
			{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {0, 4}, {5, 1},
		}, graph.DanglingSelfLoop)
		g := g0
		var all []Edit
		for i := 0; i+1 < len(data); i += 2 {
			b0, b1 := data[i], data[i+1]
			e := Edit{
				From:   graph.NodeID(b0 & 0x0f),
				To:     graph.NodeID(b0 >> 4),
				Remove: b1&1 == 1,
				Weight: float64(b1>>1) / 16,
			}
			all = append(all, e)
			if next := applyBothWays(t, fmt.Sprintf("edit %d", i/2), g, []Edit{e}); next != nil {
				g = next
			}
		}
		applyBothWays(t, "one batch", g0, all)
	})
}
