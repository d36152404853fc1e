package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/rwr"
)

// TestParallelQueryMatchesSequentialAndBruteForce holds the bare engine to
// the oracle table: across its families, as built ("csr") and as patched by
// the family's edit batch ("applied", the layout the daemon serves after an
// edit, grown by one node), at every k of the table, Engine.Query answers
// as brute force with update mode off and on at 1, 2 and 8 workers. Run
// under -race this doubles as the data-race harness for the sharded decision
// loop: in update mode its shards commit distinct rows of the engine's own
// index without a lock.
//
// The same table holds the View's sparse screen to the dense sweep: see
// checkSparseScreen.
func TestParallelQueryMatchesSequentialAndBruteForce(t *testing.T) {
	if oracle.TieTol != defaultTieTol {
		t.Fatalf("the oracle's tie tolerance %g is not the engine's %g", oracle.TieTol, defaultTieTol)
	}
	var phases fallbackPhases
	var paths pmpnPaths
	for _, family := range oracle.Families() {
		t.Run(family, func(t *testing.T) {
			for _, layout := range []string{"csr", "applied"} {
				t.Run(layout, func(t *testing.T) {
					tab := oracle.Family(t, family)
					if layout == "applied" {
						tab = tab.Applied(t)
					}
					oracleTableRows(t, family, tab, &phases, &paths)
				})
			}
		})
	}
	phases.check(t)
	paths.check(t)
}

// oracleTableRows is one (family, layout) cell of
// TestParallelQueryMatchesSequentialAndBruteForce.
func oracleTableRows(t *testing.T, family string, tab *oracle.Table, phases *fallbackPhases, paths *pmpnPaths) {
	g, built := tab.Graph, tab.Index(t)
	// The View's index must stay as built, so the sparse rows run
	// before the update-mode engines below commit into it.
	closed, zeroBound := checkSparseScreen(t, tab, built, phases)
	// coauthor is undirected — every backward ball is a whole
	// component — so there the View takes the dense path only.
	if closed == 0 && family != "coauthor" {
		t.Fatal("no query node closes its backward ball: the sparse screen went untested")
	}
	if zeroBound == 0 && family == "sinks" {
		t.Fatal("no row has a zero k-th lower bound: the zero-bound list went untested")
	}
	v, err := NewView(g, built)
	if err != nil {
		t.Fatal(err)
	}
	// checkSparseScreen held View.Query to brute force at one and four
	// workers on a few query nodes; here it answers every one. Explain and
	// the anytime tier run the same sweep.
	oracle.Check(t, "View.Query", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
		got, st, err := v.Query(q, k, 4)
		paths.add(st.PMPNHandover)
		return got, err
	})
	oracle.Check(t, "View.Explain's members", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
		ex, err := v.Explain(q, k, false, 1)
		if err != nil {
			return nil, err
		}
		members := []graph.NodeID{}
		for _, d := range ex.Decisions {
			if d.InAnswer {
				members = append(members, d.Node)
			}
		}
		return members, nil
	})
	oracle.CheckAnytime(t, "View.QueryAnytime", tab, func(q graph.NodeID, k int) ([]graph.NodeID, []graph.NodeID, error) {
		res, err := v.QueryAnytime(q, k, AnytimeOptions{Eps: 0.1}, 4)
		if err != nil {
			return nil, nil, err
		}
		return res.Guaranteed, res.Maybe, nil
	})
	summarizedFallbacks, foldedSteps := 0, 0
	for _, update := range []bool{false, true} {
		// Every engine of a sweep shares the one index; in update mode the
		// commits themselves must not change any answer (they only tighten
		// bounds).
		for _, workers := range []int{1, 2, 8} {
			eng, err := NewEngine(g, built, update)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetWorkers(workers)
			row := fmt.Sprintf("Engine.Query update=%t workers=%d", update, workers)
			oracle.Check(t, row, tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
				got, stats, err := eng.Query(q, k)
				if err != nil {
					return nil, err
				}
				if stats.Results != len(got) || stats.Screened != g.N() {
					return nil, fmt.Errorf("stats.Results=%d for %d members, a bare engine screened %d rows of %d",
						stats.Results, len(got), stats.Screened, g.N())
				}
				if update && workers == 1 {
					// Asked again after its own commits, the engine answers the same.
					again, _, err := eng.Query(q, k)
					if err != nil {
						return nil, err
					}
					if !slices.Equal(again, got) {
						return nil, fmt.Errorf("re-query after the commits %v, first answer %v", again, got)
					}
				} else if family == "social" && workers == 1 {
					fallbacks, steps := countFoldedPaths(t, eng, built, q, k)
					summarizedFallbacks += fallbacks
					foldedSteps += steps
				}
				return got, nil
			})
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
func sweepCounters(s QueryStats) [11]int {
	return [11]int{s.PMPNIters, s.PMPNEdges, s.PMPNSupport, s.Candidates, s.Hits, s.RefineSteps,
		s.ExactFallbacks, s.FallbackIters, s.FallbackBallIters, s.FallbackEarlyStops, s.Results}
}

// checkSparseScreen is the sparse-screen half of the oracle table. For one
// table and its index it takes two of the table's query nodes plus a few
// whose backward ball closes, and for every k and worker count holds
// View.Query — over the full index, over each slice of a 2-way partition and
// over the slice of a shard that owns no node — to a bare engine's dense
// sweep on answers and on every sweep counter, and the full index's answer to
// brute force. It also bounds what was screened: every materialized row by
// the bare engine, by the View at most the ball plus the zero-bound rows when
// the ball closed (the push touches no row outside it) — and on those closed
// balls holds QueryAnytime(ε = 0)'s two parts around the brute-force answer.
// It returns how many query nodes close their ball and the longest
// zero-bound list it met.
func checkSparseScreen(t *testing.T, tab *oracle.Table, idx *lbindex.Index, phases *fallbackPhases) (closedBalls, zeroBoundRows int) {
	t.Helper()
	g := tab.Graph
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
	queries := slices.Clone(tab.Queries[:2])
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
		for _, k := range tab.Ks {
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
					if gst.Screened > screened || wst.Screened != rows {
						t.Fatalf("%s: screened %d rows (dense %d), want at most %d (dense %d); ball %v, zero-bound rows %v",
							label, gst.Screened, wst.Screened, screened, rows, balls[q], zero)
					}
					if pi != 0 {
						continue
					}
					if want := tab.Want(q, k); !slices.Equal(got, want) {
						t.Fatalf("%s: sparse screen %v, brute force %v", label, got, want)
					}
					if _, closed := balls[q]; closed {
						// The anytime tier runs the same PMPN — ball phase and
						// all — round by round: at ε = 0 its two parts hold the
						// exact answer.
						res, err := v.QueryAnytime(q, k, AnytimeOptions{}, workers)
						if err != nil {
							t.Fatal(err)
						}
						if err := oracle.Brackets(res.Guaranteed, res.Maybe, tab.Want(q, k)); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
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
	tab := oracle.Family(t, "web")
	g, idx := tab.Graph, tab.Index(t)
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
