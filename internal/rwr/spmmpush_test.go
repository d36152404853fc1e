package rwr

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// pushTestViews returns the oracle graph families of the core suites (web,
// weighted co-authorship, spam farm), each as a base CSR, as an Overlay
// after an edit batch (insert, weighted insert, removal, node growth), and
// as the CSR that overlay compacts to.
func pushTestViews(t *testing.T) map[string]graph.View {
	t.Helper()
	web, err := gen.WebGraph(300, 41)
	if err != nil {
		t.Fatal(err)
	}
	coauthor, _, err := gen.Coauthor(gen.CoauthorOptions{
		Authors: 250, Communities: 6, Prolific: 3,
		PapersPerAuthor: 5, CoauthorsPerPaper: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	spam, _, err := gen.SpamWeb(gen.SpamWebOptions{
		Normal: 180, Spam: 50, Undecided: 25, Farms: 2,
		FarmDensity: 6, NormalOut: 5, SpamToNormal: 2,
		NormalToSpam: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]graph.View{}
	for name, g := range map[string]*graph.Graph{"web": web, "coauthor": coauthor, "spam": spam} {
		n := graph.NodeID(g.N())
		// An edge the family already has, to remove; two it lacks, to insert.
		var del graph.EdgeEdit
		for u := graph.NodeID(0); u < n; u++ {
			if out := g.OutNeighbors(u); len(out) > 1 {
				del = graph.EdgeEdit{From: u, To: out[len(out)-1], Remove: true}
				break
			}
		}
		var adds []graph.EdgeEdit
		for u := graph.NodeID(1); u < n && len(adds) < 2; u += 7 {
			if v := (u*31 + 5) % n; !g.HasEdge(u, v) {
				adds = append(adds, graph.EdgeEdit{From: u, To: v, Weight: float64(1 + 2*len(adds))})
			}
		}
		ov, err := graph.NewOverlay(g).Apply(append(adds, del,
			graph.EdgeEdit{From: n + 1, To: 3, Weight: 0.5}, // grows the overlay by two nodes
		))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compacted, err := ov.Compact()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		views[name+"/csr"] = g
		views[name+"/overlay"] = ov
		views[name+"/compacted"] = compacted
	}
	return views
}

var pushWidths = []int{1, 2, 5, 16}

func pushOrigins(n, width int) []graph.NodeID {
	origins := make([]graph.NodeID, width)
	for j := range origins {
		origins[j] = graph.NodeID((j*37 + 2) % n)
	}
	return origins
}

// TestForwardPushEqualsGather holds the two forward kernel forms to each
// other one sweep at a time: starting from the e_u slab and feeding each
// sweep's output back in (so the slab goes from almost all zero rows to
// dense), the push kernel's output equals the gather kernel's bit for bit.
func TestForwardPushEqualsGather(t *testing.T) {
	for name, g := range pushTestViews(t) {
		n := g.N()
		for _, w := range pushWidths {
			x := make([]float64, n*w)
			for j, u := range pushOrigins(n, w) {
				x[int(u)*w+j] = 1
			}
			push := make([]float64, n*w)
			gather := make([]float64, n*w)
			for sweep := 1; sweep <= 12; sweep++ {
				switch cg := g.(type) {
				case *graph.Graph:
					spmmTransitionPushCSR(cg, x, push, w, nil)
					spmmTransitionRangeCSR(cg, x, gather, w, 0, n)
				case *graph.Overlay:
					spmmTransitionPushOverlay(cg, x, push, w, nil)
					spmmTransitionRangeOverlay(cg, x, gather, w, 0, n)
				}
				for i := range push {
					if push[i] != gather[i] {
						t.Fatalf("%s width=%d sweep %d: push %g, gather %g at node %d column %d",
							name, w, sweep, push[i], gather[i], i/w, i%w)
					}
				}
				// Keep the origins' restart mass so rows stay mixed zero/non-zero.
				for i := range x {
					x[i] = 0.85 * push[i]
				}
				for j, u := range pushOrigins(n, w) {
					x[int(u)*w+j] += 0.15
				}
			}
		}
	}
}

// TestProximityVectorBatchPushBitIdentical is the solver-level contract of
// the push kernel: a single-segment slab run (workers = 1, push) returns,
// per column, the vector, residual and iteration count of a row-sharded run
// (workers = 3, gather) and of the scalar ProximityVectorParallel.
func TestProximityVectorBatchPushBitIdentical(t *testing.T) {
	p := DefaultParams()
	for name, g := range pushTestViews(t) {
		for _, w := range pushWidths {
			origins := pushOrigins(g.N(), w)
			pushed, err := ProximityVectorBatch(g, origins, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			gathered, err := ProximityVectorBatch(g, origins, p, 3)
			if err != nil {
				t.Fatal(err)
			}
			for j, u := range origins {
				scalar, err := ProximityVectorParallel(g, u, p, 2)
				if err != nil {
					t.Fatal(err)
				}
				for what, got := range map[string]Result{"gather slab": gathered[j], "scalar": scalar} {
					label := fmt.Sprintf("%s width=%d origin %d: push slab vs %s", name, w, u, what)
					if pushed[j].Iterations != got.Iterations || pushed[j].Residual != got.Residual {
						t.Fatalf("%s: %d iterations residual %g, want %d and %g",
							label, pushed[j].Iterations, pushed[j].Residual, got.Iterations, got.Residual)
					}
					for v := range got.Vector {
						if pushed[j].Vector[v] != got.Vector[v] {
							t.Fatalf("%s: node %d is %g, want %g", label, v, pushed[j].Vector[v], got.Vector[v])
						}
					}
				}
			}
		}
	}
}

// TestColumnProbe pins the probe protocol of the slab driver: the probe
// sees every unconverged (column, iteration) once with a tail that bounds
// the distance to the converged vector, a column it stops gets no retire
// call, and the columns left to converge are bit-identical to an unprobed
// run — at both kernel forms. read is held to its contract with a buffer the
// probe has dirtied: during the ball phase (workers = 1) it writes the listed
// rows and nothing else, and x^t is zero at every other node — the far node
// among them, which no origin reaches for the first iterations. Two probing
// slabs run at once per worker count, so -race sees any state they share.
func TestColumnProbe(t *testing.T) {
	p := DefaultParams()
	web, err := gen.WebGraph(300, 41)
	if err != nil {
		t.Fatal(err)
	}
	origins := []graph.NodeID{4, 90, 171}
	const stopCol, stopIter = 1, 9
	far := graph.NodeID(-1) // a node outside the ball after the first iteration
	reach := newBall(web.N(), true, origins...)
	growBall(web, reach, web.N())
	for u := range reach.member {
		if !reach.member[u] {
			far = graph.NodeID(u)
		}
	}
	for _, workers := range []int{1, 3} {
		want, err := ProximityVectorBatch(web, origins, p, workers)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for slab := 0; slab < 2; slab++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]float64, web.N())
				lastIter := make([]int, len(origins))
				retired := make([]bool, len(origins))
				sparseReads, farOutside := 0, false
				_, err := ProximityVectorBatchFunc(web, origins, p, workers,
					func(i, iter int, tail float64, read func([]float64) []graph.NodeID) bool {
						if iter != lastIter[i]+1 {
							t.Errorf("workers=%d column %d: probed at iteration %d after %d", workers, i, iter, lastIter[i])
						}
						lastIter[i] = iter
						for v := range buf {
							buf[v] = -7
						}
						rows := read(buf)
						if rows != nil {
							sparseReads++
							if _, in := slices.BinarySearch(rows, far); !in {
								farOutside = true
							}
						}
						for v, x := range buf {
							if _, listed := slices.BinarySearch(rows, graph.NodeID(v)); rows != nil && !listed {
								if x != -7 {
									t.Errorf("workers=%d column %d iteration %d: read wrote %g at node %d, outside its rows", workers, i, iter, x, v)
								}
								x = 0
							}
							if d := x - want[i].Vector[v]; d > tail || d < -tail {
								t.Errorf("workers=%d column %d iteration %d: node %d is %g off the converged value, tail %g",
									workers, i, iter, v, d, tail)
								return true
							}
						}
						return i == stopCol && iter == stopIter
					},
					func(i int, res Result, err error) {
						if err != nil {
							t.Error(err)
						}
						retired[i] = true
						if res.Iterations != want[i].Iterations || res.Residual != want[i].Residual || !slices.Equal(res.Vector, want[i].Vector) {
							t.Errorf("workers=%d column %d: %d iterations residual %g, unprobed run %d and %g (vectors equal: %v)",
								workers, i, res.Iterations, res.Residual, want[i].Iterations, want[i].Residual, slices.Equal(res.Vector, want[i].Vector))
						}
					})
				if err != nil {
					t.Error(err)
				}
				for i := range origins {
					if retired[i] == (i == stopCol) {
						t.Errorf("workers=%d column %d: retired=%v", workers, i, retired[i])
					}
					// A converging column is probed on every iteration but its last.
					if wantLast := want[i].Iterations - 1; i != stopCol && lastIter[i] != wantLast {
						t.Errorf("workers=%d column %d: last probe at iteration %d, want %d", workers, i, lastIter[i], wantLast)
					}
				}
				if lastIter[stopCol] != stopIter {
					t.Errorf("workers=%d: stopped column probed up to iteration %d, want %d", workers, lastIter[stopCol], stopIter)
				}
				// Only the single-segment slab has a ball phase to read from.
				if (sparseReads > 0) != (workers == 1) || farOutside != (workers == 1) {
					t.Errorf("workers=%d: %d reads handed back a row list, node %d seen outside one: %v", workers, sparseReads, far, farOutside)
				}
			}()
		}
		wg.Wait()
	}
}
