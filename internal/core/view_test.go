package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/oracle"
)

// TestViewConcurrentQueriesMatchEngine runs many goroutines through one
// View at mixed worker counts and checks every answer equals a sequential
// engine's — and that the view left the index untouched.
func TestViewConcurrentQueriesMatchEngine(t *testing.T) {
	g := randomGraph(51, 60, false)
	opts := lbindex.DefaultOptions()
	opts.K = 6
	opts.HubBudget = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Reference answers from a plain sequential no-update engine.
	eng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	type qk struct {
		q graph.NodeID
		k int
	}
	var cases []qk
	want := map[qk][]graph.NodeID{}
	for q := graph.NodeID(0); int(q) < g.N(); q += 7 {
		for _, k := range []int{1, 3, 6} {
			ans, _, err := eng.Query(q, k)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, qk{q, k})
			want[qk{q, k}] = ans
		}
	}

	v, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	refinementsBefore := idx.Refinements()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, c := range cases {
				ans, _, err := v.Query(c.q, c.k, 1+(w+i)%3)
				if err != nil {
					t.Errorf("view q=%d k=%d: %v", c.q, c.k, err)
					return
				}
				ref := want[c]
				if len(ans) != len(ref) {
					t.Errorf("view q=%d k=%d: %v, engine %v", c.q, c.k, ans, ref)
					continue
				}
				for j := range ans {
					if ans[j] != ref[j] {
						t.Errorf("view q=%d k=%d: %v, engine %v", c.q, c.k, ans, ref)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := idx.Refinements(); got != refinementsBefore {
		t.Errorf("read-only view committed %d refinements", got-refinementsBefore)
	}
}

// TestZeroBoundConcurrentFirstQueries hammers a fresh View with concurrent
// first queries at several k: whichever goroutine gets to a k first builds
// that k's zero-bound list while the others wait on it or build another, and
// every answer must still equal a bare engine's dense sweep. Run under -race
// this is the data-race harness of the lazily built table.
func TestZeroBoundConcurrentFirstQueries(t *testing.T) {
	g := oracle.Family(t, "sinks").Graph
	idx := buildIndex(t, g, 12, 4)
	eng, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	type qk struct {
		q graph.NodeID
		k int
	}
	var cases []qk
	want := map[qk][]graph.NodeID{}
	for q := graph.NodeID(0); int(q) < g.N(); q += 3 {
		if backwardReach(g, q, g.N()/8) == nil {
			continue // the ball does not close: the View would sweep densely
		}
		for _, k := range []int{1, 3, 6, 12} {
			ans, _, err := eng.Query(q, k)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, qk{q, k})
			want[qk{q, k}] = ans
		}
	}
	if len(cases) < 16 {
		t.Fatalf("only %d closed-ball cases: the sparse screen is barely exercised", len(cases))
	}
	for round := 0; round < 2; round++ {
		v, err := NewView(g, idx)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := range cases {
					c := cases[(i+w)%len(cases)] // each goroutine opens on a different k
					ans, st, err := v.Query(c.q, c.k, 1+w%2)
					if err != nil {
						t.Errorf("q=%d k=%d: %v", c.q, c.k, err)
						return
					}
					if !reflect.DeepEqual(ans, want[c]) {
						t.Errorf("q=%d k=%d: view %v, engine %v", c.q, c.k, ans, want[c])
					}
					if st.Screened >= g.N() {
						t.Errorf("q=%d k=%d: screened %d of %d rows, want a sparse screen", c.q, c.k, st.Screened, g.N())
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
}

// TestZeroBoundRebuiltPerEpoch: the zero-bound list belongs to one
// (graph, index) pair. An edit that cuts a node's reach below k makes it a
// zero-bound row of the NEXT epoch's View — built the way the daemon builds
// it, Graph.Apply + a Clone refreshed by evolve.RefreshPartial + NewView —
// while the old View, still serving the old pair, keeps its own list and its
// own answers.
func TestZeroBoundRebuiltPerEpoch(t *testing.T) {
	const (
		core = 30
		x    = graph.NodeID(core)     // x → 0 and x → y: reaches the core until the edit
		y    = graph.NodeID(core + 1) // dangling: reaches only itself
		z    = graph.NodeID(core + 2) // z → 1, no in-edges: its backward ball is {z}
		k    = 5
	)
	rng := rand.New(rand.NewSource(77))
	edges := [][2]graph.NodeID{{x, 0}, {x, y}, {z, 1}}
	for u := 0; u < core; u++ {
		for j := 0; j < 4; j++ {
			edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(rng.Intn(core))})
		}
	}
	g, err := graph.FromEdges(core+3, edges, graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildIndex(t, g, 8, 3)
	v1, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}

	g2, err := g.Apply([]graph.EdgeEdit{{From: x, To: 0, Remove: true}})
	if err != nil {
		t.Fatal(err)
	}
	idx2 := idx.Clone()
	if _, err := evolve.RefreshPartial(g2, idx2, []graph.NodeID{x}, idx2.HubMatrix().Hubs()); err != nil { // nothing reaches x: only its row moves
		t.Fatal(err)
	}
	v2, err := NewView(g2, idx2)
	if err != nil {
		t.Fatal(err)
	}

	tab1, tab2 := oracle.Of(t, g, k), oracle.Of(t, g2, k)
	for _, c := range []struct {
		name     string
		v        *View
		tab      *oracle.Table
		zero     []graph.NodeID
		xMember  bool
		screened int
	}{
		{"epoch 1", v1, tab1, []graph.NodeID{y}, false, 2},
		{"epoch 2", v2, tab2, []graph.NodeID{x, y}, true, 3},
		{"epoch 1 again", v1, tab1, []graph.NodeID{y}, false, 2},
	} {
		got, st, err := c.v.Query(z, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.tab.Want(z, k); !slices.Equal(got, want) {
			t.Errorf("%s: view %v, brute force %v", c.name, got, want)
		}
		if slices.Contains(got, x) != c.xMember {
			t.Errorf("%s: answer %v, want x=%d in it: %v", c.name, got, x, c.xMember)
		}
		if zero := c.v.zeroBound.list(k).rows; !slices.Equal(zero, c.zero) {
			t.Errorf("%s: zero-bound rows %v, want %v", c.name, zero, c.zero)
		}
		if st.Screened != c.screened {
			t.Errorf("%s: screened %d rows, want %d (z and the zero-bound rows)", c.name, st.Screened, c.screened)
		}
	}
}

// TestViewQueryDeferredFallbacks: candidates whose next refinement step
// could not decide them are parked by the sweep and resolved afterwards in
// forward slabs. Through a View — sparse screen and all — the answers must
// equal a bare engine's and the brute-force oracle, with the same PMPN, the
// fallback path must actually fire, and the resolution wall clock must be
// charged to the query's stats.
func TestViewQueryDeferredFallbacks(t *testing.T) {
	g := randomGraph(11, 150, false)
	tab := oracle.Of(t, g, 10)
	idx := buildIndex(t, g, 10, 2)
	scalar, err := NewEngine(g, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewView(g, idx)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(19))
	qs := make([]graph.NodeID, 6)
	for i := range qs {
		qs[i] = graph.NodeID(rng.Intn(g.N()))
	}
	for _, k := range []int{5, 10} {
		for _, workers := range []int{1, 4} {
			fallbacks, charged := 0, 0
			for _, q := range qs {
				got, stats, err := view.Query(q, k, workers)
				if err != nil {
					t.Fatalf("k=%d workers=%d q=%d: %v", k, workers, q, err)
				}
				fallbacks += stats.ExactFallbacks
				if stats.ExactFallbacks > 0 && stats.FallbackElapsed > 0 {
					charged++
				}
				if want := tab.Want(q, k); !slices.Equal(got, want) {
					t.Errorf("k=%d workers=%d q=%d: view %v, brute force %v", k, workers, q, got, want)
				}
				alone, astats, err := scalar.Query(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, alone) {
					t.Errorf("k=%d workers=%d q=%d: view %v, bare engine %v", k, workers, q, got, alone)
				}
				if stats.PMPNIters != astats.PMPNIters || stats.PMPNSupport != astats.PMPNSupport {
					t.Errorf("k=%d workers=%d q=%d: view PMPN %d iterations over %d rows, bare engine %d over %d",
						k, workers, q, stats.PMPNIters, stats.PMPNSupport, astats.PMPNIters, astats.PMPNSupport)
				}
			}
			if fallbacks == 0 {
				t.Fatalf("k=%d workers=%d: no fallbacks fired; the deferred path went untested", k, workers)
			}
			if charged == 0 {
				t.Errorf("k=%d workers=%d: no query with fallbacks was charged FallbackElapsed", k, workers)
			}
		}
	}
}
