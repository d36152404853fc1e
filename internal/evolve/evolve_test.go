package evolve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bca"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/workload"
)

func buildWeb(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := gen.WebGraph(n, 19)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildIdx(t *testing.T, g *graph.Graph) *lbindex.Index {
	t.Helper()
	opts := lbindex.DefaultOptions()
	opts.K = 10
	opts.HubBudget = 5
	opts.Omega = 0
	opts.Workers = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestApplyEditsAddRemove(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 0}}, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ApplyEdits(g, []Edit{
		{From: 0, To: 2},               // add
		{From: 1, To: 2, Remove: true}, // remove
	}, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 2) {
		t.Error("added edge missing")
	}
	if g2.HasEdge(1, 2) {
		t.Error("removed edge still present")
	}
	// Node 1 lost its only out-edge → self-loop policy kicks in.
	if !g2.HasEdge(1, 1) {
		t.Error("dangling policy not applied after removal")
	}
	if err := g2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestApplyEditsErrors(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 0}, {2, 0}}, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyEdits(g, []Edit{{From: 0, To: 2, Remove: true}}, graph.DanglingSelfLoop); err == nil {
		t.Error("want error removing absent edge")
	}
	if _, err := ApplyEdits(g, []Edit{{From: 0, To: 1}}, graph.DanglingSelfLoop); err == nil {
		t.Error("want error adding duplicate edge")
	}
	if _, err := ApplyEdits(g, []Edit{{From: 0, To: 2, Weight: -1}}, graph.DanglingSelfLoop); err == nil {
		t.Error("want error for negative weight")
	}
	// Remove-then-add changes a weight legally.
	g2, err := ApplyEdits(g, []Edit{
		{From: 0, To: 1, Remove: true},
		{From: 0, To: 1, Weight: 3},
	}, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	if w := g2.EdgeWeight(0, 1); w != 3 {
		t.Errorf("weight change failed: %g", w)
	}
}

func TestSources(t *testing.T) {
	edits := []Edit{{From: 5, To: 1}, {From: 2, To: 3}, {From: 5, To: 9, Remove: true}}
	got := Sources(edits)
	if !reflect.DeepEqual(got, []graph.NodeID{2, 5}) {
		t.Errorf("Sources = %v", got)
	}
}

func TestAffectedOriginsThreshold(t *testing.T) {
	g := buildWeb(t, 200)
	p := rwr.DefaultParams()
	all, err := AffectedOrigins(g, []graph.NodeID{7}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	some, err := AffectedOrigins(g, []graph.NodeID{7}, 1e-3, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(some) > len(all) {
		t.Errorf("threshold grew the affected set: %d > %d", len(some), len(all))
	}
	if len(some) == 0 {
		t.Error("no origins above threshold; node 7 should matter to someone")
	}
	if _, err := AffectedOrigins(g, []graph.NodeID{7}, -1, p); err == nil {
		t.Error("want threshold error")
	}
	if _, err := AffectedOrigins(g, []graph.NodeID{999}, 0, p); err == nil {
		t.Error("want range error")
	}
}

// TestRefreshTheta0MatchesRebuild is the central correctness property:
// after edits, a θ=0 refresh must answer queries exactly like an index
// built from scratch on the edited graph (both equal brute force).
func TestRefreshTheta0MatchesRebuild(t *testing.T) {
	g := buildWeb(t, 150)
	idx := buildIdx(t, g)

	edits := []Edit{
		{From: 3, To: 140},
		{From: 77, To: 5},
		{From: g.OutNeighbors(10)[0], To: 10, Remove: false},
	}
	// Make the last edit valid: add an edge that does not exist yet.
	edits[2] = Edit{From: 10, To: findMissingTarget(g, 10)}

	g2, err := ApplyEdits(g, edits, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	affected, err := AffectedOrigins(g2, Sources(edits), 0, idx.Options().RWR)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Refresh(g2, idx, affected)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Affected != len(affected) || stats.HubsRebuilt == 0 {
		t.Errorf("stats wrong: %+v", stats)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	eng, err := core.NewEngine(g2, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	p := idx.Options().RWR
	queries, err := workload.Queries(g2.N(), 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, _, err := eng.Query(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BruteForce(g2, q, 5, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%d: refreshed index answers %v, brute force %v", q, got, want)
		}
	}
}

// TestRefreshSnapshotIsolation checks the snapshot-producing refresh:
// the returned index answers brute-force-exact queries on the edited
// graph, while the ORIGINAL index is bit-for-bit untouched — same hub
// matrix, same p̂ rows, same refinement counter, same answers on the old
// graph — which is the property the serving daemon's epoch swap relies on.
func TestRefreshSnapshotIsolation(t *testing.T) {
	g := buildWeb(t, 150)
	idx := buildIdx(t, g)

	edits := []Edit{
		{From: 3, To: findMissingTarget(g, 3)},
		{From: 77, To: findMissingTarget(g, 77)},
	}
	g2, err := ApplyEdits(g, edits, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	affected, err := AffectedOrigins(g2, Sources(edits), 0, idx.Options().RWR)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) == 0 {
		t.Fatal("edits affected no origins; test is vacuous")
	}

	// Fingerprint the original index.
	queries, err := workload.Queries(g.N(), 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	engOld, err := core.NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	oldAnswers := make([][]graph.NodeID, len(queries))
	for i, q := range queries {
		oldAnswers[i], _, err = engOld.Query(q, 5)
		if err != nil {
			t.Fatal(err)
		}
	}
	oldHub := idx.HubMatrix()
	oldRefinements := idx.Refinements()
	oldRows := make([][]float64, len(affected))
	for i, u := range affected {
		oldRows[i] = idx.PHatRow(u)
	}

	next, stats, err := RefreshSnapshot(g2, idx, affected)
	if err != nil {
		t.Fatal(err)
	}
	if next == idx {
		t.Fatal("RefreshSnapshot returned the input index")
	}
	if stats.Affected != len(affected) {
		t.Errorf("stats report %d affected, want %d", stats.Affected, len(affected))
	}

	// The original is untouched.
	if idx.HubMatrix() != oldHub {
		t.Error("RefreshSnapshot swapped the original's hub matrix")
	}
	if got := idx.Refinements(); got != oldRefinements {
		t.Errorf("original's refinement counter moved %d → %d", oldRefinements, got)
	}
	for i, u := range affected {
		if !reflect.DeepEqual(idx.PHatRow(u), oldRows[i]) {
			t.Fatalf("p̂ row of affected node %d changed in the original", u)
		}
	}
	for i, q := range queries {
		ans, _, err := engOld.Query(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ans, oldAnswers[i]) {
			t.Fatalf("old pair's answer for q=%d changed after RefreshSnapshot", q)
		}
	}

	// The new pair is brute-force exact on the edited graph.
	if err := next.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	engNew, err := core.NewEngine(g2, next, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, _, err := engNew.Query(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BruteForce(g2, q, 5, next.Options().RWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%d: snapshot index answers %v, brute force %v", q, got, want)
		}
	}
}

// TestRefreshPartialSummarizesZeroInkStates: the index's storage rule reaches
// the states a refresh commits. After RefreshPartial on an edited social graph
// each re-indexed origin whose fresh BCA run left residue wholly below η is
// stored summarized and every other one whole, and the index keeps its
// invariants. At 512 nodes η = 5e-4 leaves the residue of some runs, not all,
// spread below η, as the 4 096-node social fixture does at 1e-4.
func TestRefreshPartialSummarizesZeroInkStates(t *testing.T) {
	g, err := gen.SocialGraph(512, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 10
	opts.HubBudget = 5
	opts.BCA.Eta = 5e-4
	opts.Workers = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	edits := []Edit{{From: 3, To: findMissingTarget(g, 3)}, {From: 77, To: findMissingTarget(g, 77)}}
	g2, err := ApplyEdits(g, edits, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	affected, err := AffectedOrigins(g2, Sources(edits), 0, opts.RWR)
	if err != nil {
		t.Fatal(err)
	}
	next := idx.Clone()
	if _, err := RefreshPartial(g2, next, affected, next.HubMatrix().Hubs()); err != nil {
		t.Fatal(err)
	}
	hm := next.HubMatrix()
	ws := bca.NewWorkspace(g2.N())
	summarized, whole := 0, 0
	for _, u := range affected {
		if hm.IsHub(u) {
			continue
		}
		fresh, err := bca.Run(g2, u, hm, opts.BCA, ws)
		if err != nil {
			t.Fatal(err)
		}
		stored := next.StateSnapshot(u)
		zeroInk := fresh.RNorm > 0 && fresh.BatchInk(opts.BCA.Eta) == 0
		if stored.Summarized() != zeroInk || stored.RNorm != fresh.RNorm || (!zeroInk && stored.W.NNZ() != fresh.W.NNZ()) {
			t.Fatalf("origin %d: stored summarized=%v ‖r‖₁=%g with %d W entries; fresh run ‖r‖₁=%g, batch ink %g, %d W entries",
				u, stored.Summarized(), stored.RNorm, stored.W.NNZ(), fresh.RNorm, fresh.BatchInk(opts.BCA.Eta), fresh.W.NNZ())
		}
		if zeroInk {
			summarized++
		} else {
			whole++
		}
	}
	if summarized == 0 || whole == 0 {
		t.Fatalf("the refresh committed %d summarized and %d whole states: the graph no longer mixes both", summarized, whole)
	}
	if err := next.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func findMissingTarget(g *graph.Graph, u graph.NodeID) graph.NodeID {
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if v != u && !g.HasEdge(u, v) {
			return v
		}
	}
	panic("node has edges to everyone")
}

func TestRefreshThresholdedStaysAccurate(t *testing.T) {
	g := buildWeb(t, 150)
	idx := buildIdx(t, g)
	edits := []Edit{{From: 42, To: findMissingTarget(g, 42)}}
	g2, err := ApplyEdits(g, edits, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	// Refresh only origins that send ≥ 1e-5 of their walk mass through
	// the edited source.
	affected, err := AffectedOrigins(g2, Sources(edits), 1e-5, idx.Options().RWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refresh(g2, idx, affected); err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g2, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	p := idx.Options().RWR
	var jSum float64
	queries, err := workload.Queries(g2.N(), 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, _, err := eng.Query(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BruteForce(g2, q, 5, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		jSum += workload.Jaccard(got, want)
	}
	if avg := jSum / 10; avg < 0.95 {
		t.Errorf("thresholded refresh too inaccurate: avg Jaccard %.3f", avg)
	}
}

func TestRefreshRejectsGrownGraph(t *testing.T) {
	g := buildWeb(t, 100)
	idx := buildIdx(t, g)
	g2, err := ApplyEdits(g, []Edit{{From: 0, To: 100}}, graph.DanglingSelfLoop) // new node
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refresh(g2, idx, nil); err == nil {
		t.Error("want node-count error")
	}
}

// TestRefreshOverMmapBackedIndex runs the full maintenance pipeline over an
// index served zero-copy from an mmap'd (read-only) file: the partial
// refresh must replace rows copy-on-write — any in-place write into a
// mapped slab would fault — and the refreshed clone must answer exactly
// like a refresh of the same index loaded onto the heap.
func TestRefreshOverMmapBackedIndex(t *testing.T) {
	g := buildWeb(t, 120)
	idx := buildIdx(t, g)
	path := filepath.Join(t.TempDir(), "index.v2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mapped, err := lbindex.LoadFile(path, lbindex.LoadOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := lbindex.LoadFile(path, lbindex.LoadOptions{Mmap: false})
	if err != nil {
		t.Fatal(err)
	}
	if mapped.MmapBacked() == heap.MmapBacked() {
		t.Skip("mmap unavailable; nothing to compare")
	}

	edits := []Edit{{From: 3, To: 7}, {From: 40, To: 2}}
	if nbrs := g.OutNeighbors(7); len(nbrs) > 1 {
		edits = append(edits, Edit{From: 7, To: nbrs[0], Remove: true})
	}
	g2, err := ApplyEdits(g, edits, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	sources := Sources(edits)
	for _, base := range []*lbindex.Index{mapped, heap} {
		affected, err := AffectedNodes(g2, sources, 0, base.Options().RWR)
		if err != nil {
			t.Fatal(err)
		}
		hm := base.HubMatrix()
		var origins, hubs []graph.NodeID
		for u, a := range affected {
			if !a {
				continue
			}
			if hm.IsHub(graph.NodeID(u)) {
				hubs = append(hubs, graph.NodeID(u))
			} else {
				origins = append(origins, graph.NodeID(u))
			}
		}
		next := base.Clone()
		if _, err := RefreshPartial(g2, next, origins, hubs); err != nil {
			t.Fatal(err)
		}
		if err := next.CheckInvariants(); err != nil {
			t.Fatalf("refreshed clone fails invariants: %v", err)
		}
		eng, err := core.NewEngine(g2, next, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []graph.NodeID{0, 3, 7, 40, 99} {
			res, _, err := eng.Query(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.BruteForce(g2, q, 5, base.Options().RWR, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("post-refresh q=%d (mmap=%v): got %v want %v", q, base.MmapBacked(), res, want)
			}
		}
	}
	// The mapped base index itself must be untouched by the refresh.
	if err := mapped.CheckInvariants(); err != nil {
		t.Fatalf("mapped base index mutated by snapshot refresh: %v", err)
	}
}
