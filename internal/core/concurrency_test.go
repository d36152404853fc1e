package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/partition"
	"repro/internal/rwr"
	"repro/internal/workload"
)

// oracleGraph builds one graph of each family the paper evaluates on.
func oracleGraph(t *testing.T, family string) *graph.Graph {
	t.Helper()
	switch family {
	case "web":
		g, err := gen.WebGraph(300, 41)
		if err != nil {
			t.Fatal(err)
		}
		return g
	case "coauthor":
		g, _, err := gen.Coauthor(gen.CoauthorOptions{
			Authors: 250, Communities: 6, Prolific: 3,
			PapersPerAuthor: 5, CoauthorsPerPaper: 2, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	case "spam":
		g, _, err := gen.SpamWeb(gen.SpamWebOptions{
			Normal: 180, Spam: 50, Undecided: 25, Farms: 2,
			FarmDensity: 6, NormalOut: 5, SpamToNormal: 2,
			NormalToSpam: 0.02, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	case "sinks":
		return sinksGraph(t)
	case "social":
		// Indexed at socialEta, most of its BCA runs stop with their residue
		// spread below η: the states the index stores summarized.
		g, err := gen.SocialGraph(512, 41)
		if err != nil {
			t.Fatal(err)
		}
		return g
	default:
		t.Fatalf("unknown family %q", family)
		return nil
	}
}

// sinksGraph is the family neither benchmark fixture has: nodes that reach
// fewer than k nodes, whose k-th lower bound is therefore zero and who rank
// every node — reachable or not — in their top-k. A strongly mixed core of
// 120 nodes; sink components the core feeds but cannot leave (a 3-cycle and
// a dangling node that ends up with a bare self-loop); the same
// shapes standing alone, unreachable from the core, so that a query there
// closes its backward ball over zero-bound rows; and source chains leading
// into the core and into a dangling node, whose backward balls are a few
// rows of ordinary nodes.
func sinksGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const core = 120
	rng := rand.New(rand.NewSource(23))
	type edge = [2]graph.NodeID
	var edges []edge
	for u := 0; u < core; u++ {
		for j := 0; j < 4; j++ {
			edges = append(edges, edge{graph.NodeID(u), graph.NodeID(rng.Intn(core))})
		}
	}
	next := graph.NodeID(core)
	cycle := func(size int) graph.NodeID {
		first := next
		for i := 0; i < size; i++ {
			if size > 1 {
				edges = append(edges, edge{first + graph.NodeID(i), first + graph.NodeID((i+1)%size)})
			}
			next++
		}
		return first
	}
	for _, size := range []int{1, 3} { // fed by the core
		first := cycle(size)
		for j := 0; j < 2; j++ {
			edges = append(edges, edge{graph.NodeID(rng.Intn(core)), first})
		}
	}
	for _, size := range []int{2, 4} { // standing alone
		cycle(size)
	}
	lone := cycle(1) // dangling, fed only by the chain below
	for _, target := range []graph.NodeID{7, 63, lone} {
		// c0 → c1 → c2 → target, with c0 also feeding c2.
		c := next
		next += 3
		edges = append(edges, edge{c, c + 1}, edge{c + 1, c + 2}, edge{c, c + 2}, edge{c + 2, target})
	}
	g, err := graph.FromEdges(int(next), edges, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// oracleEdited is family g patched by an edit batch: one edge removed, two
// weighted ones inserted, none of them touching the "sinks" family's small
// components (every endpoint is below 100).
func oracleEdited(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var edits []graph.EdgeEdit
	for u := graph.NodeID(0); u < 100; u++ {
		if out := g.OutNeighbors(u); len(out) > 1 && out[len(out)-1] < 100 {
			edits = append(edits, graph.EdgeEdit{From: u, To: out[len(out)-1], Remove: true})
			break
		}
	}
	for u := graph.NodeID(1); len(edits) < 3; u += 7 {
		if v := (u*31 + 5) % 100; !g.HasEdge(u, v) {
			edits = append(edits, graph.EdgeEdit{From: u, To: v, Weight: float64(2 * len(edits))})
		}
	}
	edited, err := g.Apply(edits)
	if err != nil {
		t.Fatal(err)
	}
	return edited
}

// TestParallelQueryMatchesSequentialAndBruteForce is the correctness oracle
// of the intra-query parallelism tentpole: across graph families, as built
// ("csr") and as patched by an edit batch ("overlay", the layout the daemon
// serves after an edit), query sizes and worker counts, the sharded engine
// must return EXACTLY the answer of the sequential engine — which in exact
// mode equals brute force. Run under -race this doubles as the data-race
// harness for the sharded decision loop: in update mode its shards commit
// distinct rows of the engine's own index without a lock.
//
// The same table holds the View's sparse screen to the dense sweep: see
// checkSparseScreen.
func TestParallelQueryMatchesSequentialAndBruteForce(t *testing.T) {
	var phases fallbackPhases
	for _, family := range []string{"web", "coauthor", "spam", "sinks", "social"} {
		t.Run(family, func(t *testing.T) {
			for _, layout := range []string{"csr", "overlay"} {
				t.Run(layout, func(t *testing.T) {
					oracleTableRows(t, family, layout, &phases)
				})
			}
		})
	}
	phases.check(t)
}

// oracleTableRows is one (family, layout) cell of
// TestParallelQueryMatchesSequentialAndBruteForce.
func oracleTableRows(t *testing.T, family, layout string, phases *fallbackPhases) {
	const indexK = 20
	g := oracleGraph(t, family)
	if layout == "overlay" {
		g = oracleEdited(t, g)
	}
	opts := lbindex.DefaultOptions()
	opts.K = indexK
	opts.HubBudget = 5
	opts.Workers = 2
	if family == "social" {
		opts.BCA.Eta = socialEta
	}
	built, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.Queries(g.N(), 6, 55)
	if err != nil {
		t.Fatal(err)
	}
	// One full proximity matrix serves every brute-force check of
	// this family (BruteForce recomputes it per call).
	cols, err := rwr.ProximityMatrix(g, opts.RWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The View's index must stay as built, so the sparse rows run
	// before the update-mode engines below commit into it.
	closed, zeroBound := checkSparseScreen(t, g, built, cols, queries, []int{1, 10, indexK}, phases)
	// coauthor is undirected — every backward ball is a whole
	// component — so there the View takes the dense path only.
	if closed == 0 && family != "coauthor" {
		t.Fatal("no query node closes its backward ball: the sparse screen went untested")
	}
	if zeroBound == 0 && family == "sinks" {
		t.Fatal("no row has a zero k-th lower bound: the zero-bound list went untested")
	}
	summarizedFallbacks, foldedSteps := 0, 0
	for _, update := range []bool{false, true} {
		// Each worker-count sweep gets engines over the same shared
		// index; in update mode the commits themselves must not
		// change any answer (they only tighten bounds).
		seqEng, err := NewEngine(g, built, update)
		if err != nil {
			t.Fatal(err)
		}
		parEngs := make([]*Engine, 0, 2)
		for _, w := range []int{2, 8} {
			eng, err := NewEngine(g, built, update)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetWorkers(w)
			parEngs = append(parEngs, eng)
		}
		for _, k := range []int{1, 10, indexK} {
			for _, q := range queries {
				want, _, err := seqEng.Query(q, k)
				if err != nil {
					t.Fatal(err)
				}
				bf := bruteForceFrom(cols, q, k)
				if !reflect.DeepEqual(want, bf) {
					t.Fatalf("update=%t k=%d q=%d: sequential %v != brute force %v",
						update, k, q, want, bf)
				}
				if update {
					// Asked again after its own commits, the engine answers the same.
					again, _, err := seqEng.Query(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(again, want) {
						t.Fatalf("k=%d q=%d: re-query after the commits %v, first answer %v", k, q, again, want)
					}
				} else if family == "social" {
					fallbacks, steps := countFoldedPaths(t, seqEng, built, q, k)
					summarizedFallbacks += fallbacks
					foldedSteps += steps
				}
				for _, eng := range parEngs {
					got, stats, err := eng.Query(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("update=%t k=%d q=%d workers=%d: parallel %v != sequential %v",
							update, k, q, eng.Workers(), got, want)
					}
					if stats.Results != len(got) {
						t.Fatalf("k=%d q=%d workers=%d: stats.Results=%d, len(answer)=%d",
							k, q, eng.Workers(), stats.Results, len(got))
					}
					if stats.Screened != g.N() {
						t.Fatalf("k=%d q=%d workers=%d: a bare engine screened %d rows of %d",
							k, q, eng.Workers(), stats.Screened, g.N())
					}
				}
			}
		}
	}
	if family == "social" {
		if summarizedFallbacks == 0 {
			t.Fatal("no summarized candidate reached the exact fallback: the social rows went untested")
		}
		if foldedSteps == 0 {
			t.Fatal("refinement stepped no folded state: the folded rows went untested")
		}
		t.Logf("%d summarized candidates reached the exact fallback; refinement took %d steps from folded states", summarizedFallbacks, foldedSteps)
	}
	if err := built.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// socialEta is the η the social oracle family is indexed at. At 512 nodes it
// spreads most BCA runs' residue wholly below η, as the 4 096-node social
// fixture's 1e-4 does, so the index stores those states summarized.
const socialEta = 5e-4

// countFoldedPaths counts, for query (q, k), the candidates that went to the
// exact fallback with a summarized stored state — the rows whose R and W the
// index never stored, which refinement must leave to the solve unread — and
// the refinement steps taken from folded stored states: states that keep W
// but not their R entries below η, whose mass stays in ‖r‖₁.
func countFoldedPaths(t *testing.T, eng *Engine, idx *lbindex.Index, q graph.NodeID, k int) (summarizedFallbacks, foldedSteps int) {
	t.Helper()
	ex, err := eng.Explain(q, k, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ex.Decisions {
		st := idx.StateSnapshot(d.Node)
		if st == nil {
			continue
		}
		if d.Outcome == OutcomeFallback && st.Summarized() {
			summarizedFallbacks++
		}
		if !st.Summarized() && st.R.L1() < st.RNorm {
			foldedSteps += d.RefineSteps
		}
	}
	return summarizedFallbacks, foldedSteps
}

// backwardReach returns, ascending, the nodes with a path to q, or nil once
// there are limit of them or more.
func backwardReach(g *graph.Graph, q graph.NodeID, limit int) []graph.NodeID {
	seen := map[graph.NodeID]bool{q: true}
	reach := []graph.NodeID{q}
	for i := 0; i < len(reach); i++ {
		for _, u := range g.InNeighbors(reach[i]) {
			if !seen[u] {
				seen[u] = true
				reach = append(reach, u)
			}
		}
		if len(reach) >= limit {
			return nil
		}
	}
	slices.Sort(reach)
	return reach
}

// sweepCounters are the QueryStats fields a sparse screen must reproduce
// from the dense sweep exactly (Screened is the one that differs by design;
// the rest are wall-clock).
func sweepCounters(s QueryStats) [10]int {
	return [10]int{s.PMPNIters, s.PMPNSupport, s.Candidates, s.Hits, s.RefineSteps,
		s.ExactFallbacks, s.FallbackIters, s.FallbackBallIters, s.FallbackEarlyStops, s.Results}
}

// checkSparseScreen is the sparse-screen half of the oracle table. For one
// (graph, index) pair it takes two of the table's sampled queries plus a few
// whose backward ball closes (the only ones a View screens sparsely), and for
// every k and worker count holds View.Query — over the full index, over each
// slice of a 2-way partition and over the slice of a shard that owns no node —
// to a bare engine's dense sweep on answers
// and on every sweep counter, and the full index's answer to brute force. It
// also pins what was screened: the ball plus the zero-bound rows when the
// ball closed, every materialized row otherwise — and on those closed balls
// holds QueryAnytime(ε = 0)'s two parts around the cold query's answer. It
// returns how many query nodes close their ball and the longest zero-bound
// list it met.
func checkSparseScreen(t *testing.T, g *graph.Graph, idx *lbindex.Index, cols [][]float64, sampled []graph.NodeID, ks []int, phases *fallbackPhases) (closedBalls, zeroBoundRows int) {
	t.Helper()
	n := g.N()
	balls := map[graph.NodeID][]graph.NodeID{}
	var closed []graph.NodeID
	for q := graph.NodeID(0); int(q) < n; q++ {
		// A backward BFS finds the small balls without n dense PMPN runs; the
		// PMPN of such a q must then report exactly those rows.
		reach := backwardReach(g, q, n/8)
		if reach == nil {
			continue
		}
		res, err := rwr.ProximityToParallel(g, q, idx.Options().RWR, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Rows, reach) {
			t.Fatalf("q=%d: PMPN row list %v, backward reach %v", q, res.Rows, reach)
		}
		balls[q] = res.Rows
		closed = append(closed, q)
	}
	// Two sampled queries (on a closed ball or not, as they fall) and six
	// closed-ball ones spread over the id space.
	queries := append([]graph.NodeID(nil), sampled[:2]...)
	for i := 0; i < len(closed); i += max(1, len(closed)/6) {
		if !slices.Contains(queries, closed[i]) {
			queries = append(queries, closed[i])
		}
	}
	pm, err := partition.NewBalanced(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []*lbindex.Index{idx}
	for s := 0; s < pm.P(); s++ {
		slice, err := idx.ShardSlice(pm, s)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, slice)
	}
	// And the slice of a shard that owns nothing: no rows, which its empty
	// range must not turn into all of them.
	thin, err := partition.FromParts(n, 3, []int32{0, int32(n / 2), int32(n / 2), int32(n)})
	if err != nil {
		t.Fatal(err)
	}
	slice, err := idx.ShardSlice(thin, 1)
	if err != nil {
		t.Fatal(err)
	}
	pairs = append(pairs, slice)
	for pi, pidx := range pairs {
		v, err := NewView(g, pidx)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewEngine(g, pidx, false)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := pidx.Rows()
		rows := hi - lo
		for _, k := range ks {
			zero := v.zeroBound.list(k).rows
			zeroBoundRows = max(zeroBoundRows, len(zero))
			for _, q := range queries {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("index %d k=%d q=%d workers=%d", pi, k, q, workers)
					dense.SetWorkers(workers)
					want, wst, err := dense.Query(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, gst, err := v.Query(q, k, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: sparse screen %v, dense sweep %v", label, got, want)
					}
					if sweepCounters(gst) != sweepCounters(wst) {
						t.Fatalf("%s: sparse screen counted %+v, dense sweep %+v", label, gst, wst)
					}
					phases.add(gst)
					screened := rows
					if ball, closed := balls[q]; closed {
						screened = len(zero)
						for _, u := range ball {
							if pidx.Owns(u) && !slices.Contains(zero, u) {
								screened++
							}
						}
					}
					if gst.Screened != screened || wst.Screened != rows {
						t.Fatalf("%s: screened %d rows (dense %d), want %d (dense %d); ball %v, zero-bound rows %v",
							label, gst.Screened, wst.Screened, screened, rows, balls[q], zero)
					}
					if pi == 0 {
						if bf := bruteForceFrom(cols, q, k); !reflect.DeepEqual(got, bf) {
							t.Fatalf("%s: sparse screen %v, brute force %v", label, got, bf)
						}
					}
					if _, closed := balls[q]; closed && pi == 0 {
						// The anytime tier runs the same PMPN — ball phase and
						// all — round by round: at ε = 0 its two parts hold the
						// cold query's answer.
						res, err := v.QueryAnytime(q, k, AnytimeOptions{}, workers)
						if err != nil {
							t.Fatal(err)
						}
						checkContainment(t, label, res.Guaranteed, res.Maybe, got)
					}
				}
			}
		}
	}
	return len(balls), zeroBoundRows
}

// TestParallelStatsMatchSequential: shard-merged counters must equal the
// sequential sweep's (they are per-node counts, summed).
func TestParallelStatsMatchSequential(t *testing.T) {
	g := oracleGraph(t, "web")
	opts := lbindex.DefaultOptions()
	opts.K = 20
	opts.HubBudget = 5
	opts.Workers = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	par.SetWorkers(4)
	for _, q := range []graph.NodeID{1, 100, 299} {
		_, ws, err := seq.Query(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		_, ps, err := par.Query(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Candidates != ws.Candidates || ps.Hits != ws.Hits ||
			ps.RefineSteps != ws.RefineSteps || ps.ExactFallbacks != ws.ExactFallbacks ||
			ps.Committed != ws.Committed || ps.PMPNIters != ws.PMPNIters {
			t.Errorf("q=%d: parallel stats %+v != sequential %+v", q, ps, ws)
		}
	}
}

// TestViewQueriesBesideClonedWritersAndSave runs the pattern the serving
// daemon runs, under lbindex.Index's one-writer rule: one built index serves
// View queries from several goroutines while, at the same time, update-mode
// engines each refine and commit into their own Clone of it and another
// goroutine Saves the original. Every answer must equal a single-threaded
// reference, each clone must stay invariant-clean with its commits counted,
// and the original must save to the same bytes before, during and after. Run
// with -race it shows that none of this needs a lock.
func TestViewQueriesBesideClonedWritersAndSave(t *testing.T) {
	const k = 10
	g, err := gen.WebGraph(400, 31)
	if err != nil {
		t.Fatal(err)
	}
	opts := lbindex.DefaultOptions()
	opts.K = 20
	opts.HubBudget = 5
	opts.Omega = 0
	opts.Workers = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	save := func() []byte {
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	image := save()

	refEng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	queries := []graph.NodeID{3, 77, 150, 222, 301, 399}
	want := make([][]graph.NodeID, len(queries))
	for i, q := range queries {
		if want[i], _, err = refEng.Query(q, k); err != nil {
			t.Fatal(err)
		}
	}
	v, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	check := func(who string, query func(graph.NodeID) ([]graph.NodeID, QueryStats, error)) {
		for round := 0; round < 3; round++ {
			for i, q := range queries {
				got, _, err := query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s q=%d: got %v, want %v", who, q, got, want[i])
					return
				}
			}
		}
	}

	const readers, writers = 3, 2
	clones := make([]*lbindex.Index, writers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(fmt.Sprintf("view reader %d", r), func(q graph.NodeID) ([]graph.NodeID, QueryStats, error) {
				return v.Query(q, k, 2)
			})
		}()
	}
	for w := range clones {
		clones[w] = idx.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := NewEngine(g, clones[w], true)
			if err != nil {
				t.Error(err)
				return
			}
			eng.SetWorkers(2)
			check(fmt.Sprintf("writer %d", w), func(q graph.NodeID) ([]graph.NodeID, QueryStats, error) {
				return eng.Query(q, k)
			})
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 3 {
			if !bytes.Equal(save(), image) {
				t.Error("the original saved different bytes while its clones were written")
				return
			}
		}
	}()
	wg.Wait()

	for w, c := range clones {
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("clone %d: %v", w, err)
		}
		if c.Refinements() == 0 {
			t.Errorf("clone %d: no commits: the writers went untested", w)
		}
	}
	if !bytes.Equal(save(), image) {
		t.Error("the original saved different bytes after its clones were written")
	}
}
