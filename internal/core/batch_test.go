package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/workload"
)

func TestQueryBatchMatchesSequential(t *testing.T) {
	g, err := gen.WebGraph(300, 17)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildIndexFromGraph(t, g, 10, 5)
	queries, err := workload.Queries(g.N(), 20, 2)
	if err != nil {
		t.Fatal(err)
	}

	results, err := QueryBatch(g, idx, queries, 5, 4, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("results = %d", len(results))
	}
	// Sequential reference on a fresh identical index.
	refIdx := buildIndexFromGraph(t, g, 10, 5)
	eng, err := NewEngine(g, refIdx, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Query != queries[i] {
			t.Errorf("result %d out of order", i)
		}
		want, _, err := eng.Query(queries[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Answer, want) {
			t.Errorf("q=%d: batch %v, sequential %v", queries[i], r.Answer, want)
		}
	}
}

func TestQueryBatchValidation(t *testing.T) {
	g := toyGraph(t)
	idx := buildIndex(t, g, 3, 1)
	if _, err := QueryBatch(g, idx, []graph.NodeID{0}, 0, 2, false, false); err == nil {
		t.Error("want k error")
	}
	// Out-of-range query is reported per result, not as a batch error.
	results, err := QueryBatch(g, idx, []graph.NodeID{0, 99}, 2, 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("valid query errored: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("out-of-range query should carry an error")
	}

	// A graph/index node-count mismatch must surface as an error — this
	// used to leave the jobs channel without receivers and deadlock.
	bigger, err := gen.WebGraph(g.N()+5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QueryBatch(bigger, idx, []graph.NodeID{0}, 2, 2, false, false); err == nil {
		t.Error("want engine-construction error for mismatched graph/index")
	}
}

// TestQueryBatchDeferredFallbacks: candidates whose next refinement step
// could not decide them are parked by QueryBatch, which resolves the whole
// batch's stalls in deduplicated shared slabs. The answers must equal a
// scalar engine and the brute-force oracle, the fallback path
// must actually fire, and the shared resolution wall clock must be charged
// to the parked queries' stats.
func TestQueryBatchDeferredFallbacks(t *testing.T) {
	p := rwr.DefaultParams()
	g := randomGraph(11, 150, false)
	idx := buildIndex(t, g, 10, 2)
	scalar, err := NewEngine(g, idx, false)
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
			results, err := QueryBatch(g, idx, qs, k, workers, false, false)
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			fallbacks, charged := 0, 0
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("k=%d workers=%d q=%d: %v", k, workers, qs[i], r.Err)
				}
				fallbacks += r.Stats.ExactFallbacks
				if r.Stats.ExactFallbacks > 0 && r.Stats.FallbackElapsed > 0 {
					charged++
				}
				want, err := BruteForce(g, qs[i], k, p, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r.Answer, want) {
					t.Errorf("k=%d workers=%d q=%d: batched %v, brute force %v", k, workers, qs[i], r.Answer, want)
				}
				alone, astats, err := scalar.Query(qs[i], k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r.Answer, alone) {
					t.Errorf("k=%d workers=%d q=%d: batched %v, scalar engine %v", k, workers, qs[i], r.Answer, alone)
				}
				if r.Stats.PMPNIters != astats.PMPNIters || r.Stats.PMPNSupport != astats.PMPNSupport {
					t.Errorf("k=%d workers=%d q=%d: batched PMPN %d iterations over %d rows, scalar %d over %d",
						k, workers, qs[i], r.Stats.PMPNIters, r.Stats.PMPNSupport, astats.PMPNIters, astats.PMPNSupport)
				}
			}
			if fallbacks == 0 {
				t.Fatalf("k=%d workers=%d: no fallbacks fired; the deferred path went untested", k, workers)
			}
			if charged == 0 {
				t.Errorf("k=%d workers=%d: no parked query was charged FallbackElapsed", k, workers)
			}
		}
	}
}

// buildIndexFromGraph mirrors buildIndex but for an arbitrary graph.
func buildIndexFromGraph(t testing.TB, g *graph.Graph, k, hubBudget int) *lbindex.Index {
	t.Helper()
	opts := lbindex.DefaultOptions()
	opts.K = k
	opts.HubBudget = hubBudget
	opts.Omega = 0
	opts.Workers = 2
	idx, _, err := lbindex.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}
