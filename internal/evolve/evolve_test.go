package evolve

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bca"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
	"repro/internal/rwr"
	"repro/internal/vecmath"
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

// originsOf lists the nodes an AffectedNodes mask flags, ascending.
func originsOf(mask []bool, err error) ([]graph.NodeID, error) {
	var out []graph.NodeID
	for w, a := range mask {
		if a {
			out = append(out, graph.NodeID(w))
		}
	}
	return out, err
}

func TestAffectedOriginsThreshold(t *testing.T) {
	g := buildWeb(t, 200)
	p := rwr.DefaultParams()
	all, err := originsOf(AffectedNodes(g, []graph.NodeID{7}, 0, p))
	if err != nil {
		t.Fatal(err)
	}
	some, err := originsOf(AffectedNodes(g, []graph.NodeID{7}, 1e-3, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(some) > len(all) {
		t.Errorf("threshold grew the affected set: %d > %d", len(some), len(all))
	}
	if len(some) == 0 {
		t.Error("no origins above threshold; node 7 should matter to someone")
	}
	if _, err := originsOf(AffectedNodes(g, []graph.NodeID{7}, -1, p)); err == nil {
		t.Error("want threshold error")
	}
	if _, err := originsOf(AffectedNodes(g, []graph.NodeID{999}, 0, p)); err == nil {
		t.Error("want range error")
	}
}

// TestAffectedNodesThresholdInclusive: a node whose p_w(s) is exactly θ is
// refreshed — the mask holds {w : p_w(s) > 0 and p_w(s) ≥ θ}, for θ set to
// proximities read from a converged PMPN — and the mask is no wider than the
// push's bracket allows: a flagged node's p_w(s) is within θ/10 (the push's
// residue bound) and the PMPN's own error of θ.
func TestAffectedNodesThresholdInclusive(t *testing.T) {
	g := buildWeb(t, 200)
	p := rwr.DefaultParams()
	const s = graph.NodeID(7)
	ps, err := rwr.ProximityTo(g, s, p)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for w, theta := range ps.Vector {
		if theta == 0 || w%5 != 0 {
			continue
		}
		checked++
		mask, err := AffectedNodes(g, []graph.NodeID{s}, theta, p)
		if err != nil {
			t.Fatal(err)
		}
		slack := 2 * p.Eps * (1 - p.Alpha) / p.Alpha
		for u, v := range ps.Vector {
			if must, may := v > 0 && v >= theta, v > 0 && v >= 0.9*theta-slack; mask[u] && !may || must && !mask[u] {
				t.Fatalf("θ = p_%d(%d) = %g: node %d with p = %g flagged %v", w, s, theta, u, v, mask[u])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no node reaches the source")
	}
}

// TestRefreshTheta0MatchesRebuild is RefreshPartial's row of the oracle
// table, the central correctness property: on every family, a θ = 0 refresh
// of the index for the family's edit batch — grown by the batch's new node
// as the daemon grows it — answers as brute force on the applied graph, as
// an index built from scratch on it does.
func TestRefreshTheta0MatchesRebuild(t *testing.T) {
	for _, family := range oracle.Families() {
		tab := oracle.Family(t, family)
		applied := tab.Applied(t)
		g2 := applied.Graph
		idx := tab.Index(t).CloneGrown(g2.N())
		// The new node is a source of the batch, so it is affected.
		origins, err := originsOf(AffectedNodes(g2, Sources(tab.Edits), 0, idx.Options().RWR))
		if err != nil {
			t.Fatal(err)
		}
		hubs := idx.HubMatrix().Hubs()
		stats, err := RefreshPartial(g2, idx, origins, hubs)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Affected != len(origins) || stats.HubsRebuilt != len(hubs) || len(hubs) == 0 {
			t.Errorf("%s: stats report %d affected and %d hubs rebuilt, want %d and %d (> 0)",
				family, stats.Affected, stats.HubsRebuilt, len(origins), len(hubs))
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(g2, idx, true)
		if err != nil {
			t.Fatal(err)
		}
		oracle.Check(t, "Engine.Query after RefreshPartial", applied, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
			got, _, err := eng.Query(q, k)
			return got, err
		})
	}
}

// TestRefreshSnapshotIsolation checks a refresh of a Clone, the way the
// serving daemon builds its next epoch: the refreshed clone answers
// brute-force-exact queries on the edited graph, while the ORIGINAL index is
// bit-for-bit untouched — same hub matrix, same p̂ rows, same refinement
// counter, same answers on the old graph — which is the property the
// daemon's epoch swap relies on.
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
	affected, err := originsOf(AffectedNodes(g2, Sources(edits), 0, idx.Options().RWR))
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

	next := idx.Clone()
	stats, err := RefreshPartial(g2, next, affected, next.HubMatrix().Hubs())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Affected != len(affected) {
		t.Errorf("stats report %d affected, want %d", stats.Affected, len(affected))
	}

	// The original is untouched.
	if idx.HubMatrix() != oldHub {
		t.Error("refreshing the clone swapped the original's hub matrix")
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
			t.Fatalf("old pair's answer for q=%d changed after the clone's refresh", q)
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
	tab := oracle.Of(t, g2, next.K())
	for _, q := range queries {
		got, _, err := engNew.Query(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := tab.Want(q, 5); !slices.Equal(got, want) {
			t.Fatalf("q=%d: snapshot index answers %v, brute force %v", q, got, want)
		}
	}
}

// TestRefreshPartialSummarizesZeroInkStates: the index's storage rule reaches
// the states a refresh commits. After RefreshPartial on an edited social graph
// each re-indexed origin whose fresh BCA run left residue wholly below η is
// stored summarized, every other one keeps W and the run's R entries at or
// above η, and the index keeps its invariants. Values are compared as the
// index stores them: rounded toward zero to float32, the loss of S and W
// added to ‖r‖₁. At 512 nodes η = 5e-4 leaves the residue of some runs, not
// all, spread below η, as the 4 096-node social fixture does at 1e-4.
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
	affected, err := originsOf(AffectedNodes(g2, Sources(edits), 0, opts.RWR))
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
		r, _ := vecmath.Round32(fresh.R)
		w, lostW := vecmath.Round32(fresh.W)
		_, lostS := vecmath.Round32(fresh.S)
		ink := (&bca.State{R: r.Widen()}).BatchInk(opts.BCA.Eta)
		rnorm := fresh.RNorm + lostS
		zeroInk := rnorm > 0 && ink == 0
		if rnorm > 0 && !zeroInk {
			rnorm += lostW
		}
		stored := next.StateSnapshot(u)
		if stored.Summarized() != zeroInk || stored.RNorm != rnorm || (!zeroInk && stored.W.NNZ() != w.NNZ()) {
			t.Fatalf("origin %d: stored summarized=%v ‖r‖₁=%g with %d W entries; fresh run rounded ‖r‖₁=%g, batch ink %g, %d W entries",
				u, stored.Summarized(), stored.RNorm, stored.W.NNZ(), rnorm, ink, w.NNZ())
		}
		if zeroInk {
			summarized++
			continue
		}
		whole++
		kept := 0
		for _, v := range r.Val {
			if float64(v) >= opts.BCA.Eta {
				kept++
			}
		}
		if stored.R.NNZ() != kept || stored.BatchInk(opts.BCA.Eta) != ink {
			t.Fatalf("origin %d: stored %d R entries with batch ink %g; fresh run has %d at or above η with batch ink %g",
				u, stored.R.NNZ(), stored.BatchInk(opts.BCA.Eta), kept, ink)
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
	affected, err := originsOf(AffectedNodes(g2, Sources(edits), 1e-5, idx.Options().RWR))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RefreshPartial(g2, idx, affected, idx.HubMatrix().Hubs()); err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g2, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	tab := oracle.Of(t, g2, idx.K())
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
		jSum += workload.Jaccard(got, tab.Want(q, 5))
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
	if _, err := RefreshPartial(g2, idx, nil, idx.HubMatrix().Hubs()); err == nil {
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
	tab := oracle.Of(t, g2, 10)
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
			if want := tab.Want(q, 5); !slices.Equal(res, want) {
				t.Fatalf("post-refresh q=%d (mmap=%v): got %v want %v", q, base.MmapBacked(), res, want)
			}
		}
	}
	// The mapped base index itself must be untouched by the refresh.
	if err := mapped.CheckInvariants(); err != nil {
		t.Fatalf("mapped base index mutated by snapshot refresh: %v", err)
	}
}
