package evolve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rwr"
)

// This file holds the differential suite between the two edit-application
// implementations: the O(N+M) rebuild (ApplyEdits, the reference
// semantics) and the O(edits) delta (graph.Overlay.Apply, what the serving
// pipeline uses). Over random graphs and random edit sequences the two
// must agree on every observable: adjacency, weights, normalizers, error
// behavior, the transition operators bit for bit, and the CSR produced by
// compaction.

// canonicalDump renders a view as a deterministic text form — one line per
// node with out/in adjacency and weights, plus header counts. Two views
// with equal dumps are byte-equivalent for every consumer in this
// repository (all access flows through the View surface).
func canonicalDump(v graph.View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d\n", v.N(), v.M())
	for u := graph.NodeID(0); int(u) < v.N(); u++ {
		fmt.Fprintf(&b, "%d tw=%b out", u, v.TotalOutWeight(u))
		ws := v.OutWeightsOf(u)
		for i, x := range v.OutNeighbors(u) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			fmt.Fprintf(&b, " %d:%b", x, w)
		}
		b.WriteString(" in")
		iws := v.InWeightsOf(u)
		for i, x := range v.InNeighbors(u) {
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

// assertInAdjacencyMirrorsOut fails unless the in-adjacency of v is its
// out-adjacency transposed, listed by ascending source:
//
//   - every in-neighbor list strictly ascends — the order the forward push
//     kernel's bit-identity with the gather kernel rests on (rwr/spmmfwd.go);
//   - u ∈ InNeighbors(w) ⇔ w ∈ OutNeighbors(u), with the same weight — what
//     lets the PMPN's ball phase find every row that can leave zero by
//     walking InNeighbors (rwr.ProximityToParallel). Every in-entry names an
//     existing out-edge, entries within a list are distinct, and both sides
//     count the same number of edges, so the two are in bijection.
func assertInAdjacencyMirrorsOut(t *testing.T, what string, v graph.View) {
	t.Helper()
	ins, outs := 0, 0
	for w := graph.NodeID(0); int(w) < v.N(); w++ {
		outs += len(v.OutNeighbors(w))
		in := v.InNeighbors(w)
		ins += len(in)
		iws := v.InWeightsOf(w)
		for i, u := range in {
			if i > 0 && in[i-1] >= u {
				t.Fatalf("%s: in-neighbors of %d not strictly ascending: %v", what, w, in)
			}
			weight := 1.0
			if iws != nil {
				weight = iws[i]
			}
			if got := v.EdgeWeight(u, w); got != weight {
				t.Fatalf("%s: %d lists in-neighbor %d with weight %g, but edge %d→%d has weight %g (0 = absent)",
					what, w, u, weight, u, w, got)
			}
		}
	}
	if ins != outs || outs != v.M() {
		t.Fatalf("%s: %d in-entries, %d out-entries, M = %d", what, ins, outs, v.M())
	}
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

// randomBatch draws a batch of edits against the current view: removals of
// existing edges, inserts of missing edges (sometimes weighted, sometimes
// growing the node set), plus remove+insert weight changes. About one
// batch in eight is deliberately INVALID (removing a missing edge or
// inserting a duplicate) to exercise error parity.
func randomBatch(rng *rand.Rand, v graph.View, size int) []Edit {
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
func invalidBatch(rng *rand.Rand, v graph.View) []Edit {
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

// mulBitwiseEqual checks the three transition kernels agree bit for bit
// between two views on a shared probe vector.
func mulBitwiseEqual(t *testing.T, a, b graph.View, seed int64) {
	t.Helper()
	n := a.N()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	da, db := make([]float64, n), make([]float64, n)
	rwr.MulTransition(a, x, da)
	rwr.MulTransition(b, x, db)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("MulTransition differs at %d: %b vs %b", i, da[i], db[i])
		}
	}
	rwr.MulTransitionT(a, x, da)
	rwr.MulTransitionT(b, x, db)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("MulTransitionT differs at %d: %b vs %b", i, da[i], db[i])
		}
	}
	rwr.MulTransitionRange(a, x, da, 0, n)
	rwr.MulTransitionRange(b, x, db, 0, n)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("MulTransitionRange differs at %d: %b vs %b", i, da[i], db[i])
		}
	}
}

// TestOverlayMatchesApplyEdits is the main differential check: random edit
// batches chained through both implementations stay canonically equal at
// every step, transition operators agree bitwise, errors coincide, and the
// final compacted CSR equals the rebuilt CSR byte for byte (canonical
// form).
func TestOverlayMatchesApplyEdits(t *testing.T) {
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
			rebuilt := g
			ov := graph.NewOverlay(g)
			rng := rand.New(rand.NewSource(tc.seed * 77))
			for batch := 0; batch < 12; batch++ {
				if rng.Intn(8) == 0 {
					bad := invalidBatch(rng, ov)
					_, errA := ApplyEdits(rebuilt, bad, graph.DanglingSelfLoop)
					ov2, errB := ov.Apply(bad)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("batch %d: error parity broken: rebuild=%v overlay=%v (edits %v)", batch, errA, errB, bad)
					}
					if errB == nil {
						t.Fatalf("batch %d: invalid batch accepted", batch)
					}
					_ = ov2
					continue
				}
				edits := randomBatch(rng, ov, 3+rng.Intn(5))
				g2, errA := ApplyEdits(rebuilt, edits, graph.DanglingSelfLoop)
				ov2, errB := ov.Apply(edits)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("batch %d: error parity broken: rebuild=%v overlay=%v (edits %v)", batch, errA, errB, edits)
				}
				if errA != nil {
					continue
				}
				rebuilt, ov = g2, ov2
				if da, db := canonicalDump(rebuilt), canonicalDump(ov); da != db {
					t.Fatalf("batch %d (edits %v): overlay diverged from rebuild:\n--- rebuild\n%s--- overlay\n%s", batch, edits, da, db)
				}
				mulBitwiseEqual(t, rebuilt, ov, tc.seed+int64(batch))
			}

			// Compaction byte-stability: the folded CSR must match the
			// chain-rebuilt CSR canonically and keep the kernels bitwise
			// identical, and a fresh overlay over it must round-trip.
			compacted, err := ov.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if err := compacted.Validate(); err != nil {
				t.Fatalf("compacted CSR invalid: %v", err)
			}
			if da, db := canonicalDump(rebuilt), canonicalDump(compacted); da != db {
				t.Fatalf("compacted CSR diverged from rebuilt CSR:\n--- rebuild\n%s--- compacted\n%s", da, db)
			}
			mulBitwiseEqual(t, rebuilt, compacted, tc.seed+999)
			if da, db := canonicalDump(ov), canonicalDump(graph.NewOverlay(compacted)); da != db {
				t.Fatalf("overlay round-trip through compaction diverged")
			}
		})
	}
}

// TestOverlayPMPNMatchesRebuild runs the full PMPN solver on both
// representations and demands bit-identical proximity vectors — the
// operator the online query algorithm depends on.
func TestOverlayPMPNMatchesRebuild(t *testing.T) {
	g := diffTestGraph(t, 50, 9, true)
	ov := graph.NewOverlay(g)
	rng := rand.New(rand.NewSource(42))
	rebuilt := g
	for batch := 0; batch < 4; batch++ {
		edits := randomBatch(rng, ov, 4)
		g2, errA := ApplyEdits(rebuilt, edits, graph.DanglingSelfLoop)
		ov2, errB := ov.Apply(edits)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error parity broken: %v vs %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		rebuilt, ov = g2, ov2
	}
	p := rwr.DefaultParams()
	for _, q := range []graph.NodeID{0, 7, graph.NodeID(rebuilt.N() - 1)} {
		for _, workers := range []int{1, 3} {
			ra, err := rwr.ProximityToParallel(rebuilt, q, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := rwr.ProximityToParallel(ov, q, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			if ra.Iterations != rb.Iterations || ra.Residual != rb.Residual {
				t.Fatalf("q=%d workers=%d: convergence differs: (%d,%g) vs (%d,%g)",
					q, workers, ra.Iterations, ra.Residual, rb.Iterations, rb.Residual)
			}
			for i := range ra.Vector {
				if ra.Vector[i] != rb.Vector[i] {
					t.Fatalf("q=%d workers=%d: PMPN vector differs at %d: %b vs %b", q, workers, i, ra.Vector[i], rb.Vector[i])
				}
			}
		}
	}
}

// FuzzOverlayApply drives the differential check from fuzzer-chosen bytes:
// each byte pair encodes one edit against a small fixed graph, applied
// both ways.
func FuzzOverlayApply(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x45, 0x67})
	f.Add([]byte{0xff, 0x00, 0x10, 0x81, 0x22, 0x9c})
	f.Add([]byte{0x07, 0x70, 0x33, 0x33, 0x12, 0x21, 0x44, 0x99})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _ := graph.FromEdges(8, [][2]graph.NodeID{
			{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {0, 4}, {5, 1},
		}, graph.DanglingSelfLoop)
		rebuilt := g
		ov := graph.NewOverlay(g)
		for i := 0; i+1 < len(data); i += 2 {
			b0, b1 := data[i], data[i+1]
			e := Edit{
				From:   graph.NodeID(b0 & 0x0f),
				To:     graph.NodeID(b0 >> 4),
				Remove: b1&1 == 1,
				Weight: float64(b1>>1) / 16,
			}
			edits := []Edit{e}
			g2, errA := ApplyEdits(rebuilt, edits, graph.DanglingSelfLoop)
			ov2, errB := ov.Apply(edits)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("error parity broken on %+v: rebuild=%v overlay=%v", e, errA, errB)
			}
			if errA != nil {
				continue
			}
			rebuilt, ov = g2, ov2
			if da, db := canonicalDump(rebuilt), canonicalDump(ov); da != db {
				t.Fatalf("divergence after %+v:\n--- rebuild\n%s--- overlay\n%s", e, da, db)
			}
			assertInAdjacencyMirrorsOut(t, "overlay", ov)
		}
		compacted, err := ov.Compact()
		if err != nil {
			t.Fatal(err)
		}
		assertInAdjacencyMirrorsOut(t, "compacted", compacted)
		if da, db := canonicalDump(rebuilt), canonicalDump(compacted); da != db {
			t.Fatalf("compaction divergence:\n--- rebuild\n%s--- compacted\n%s", da, db)
		}
	})
}
