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
// weighted co-authorship, spam farm), each as built and as the CSR an edit
// batch patches it into (insert, weighted insert, removal, node growth).
func pushTestViews(t *testing.T) map[string]*graph.Graph {
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
	views := map[string]*graph.Graph{}
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
		applied, err := g.Apply(append(adds, del,
			graph.EdgeEdit{From: n + 1, To: 3, Weight: 0.5}, // grows the graph by two nodes
		))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		views[name+"/csr"] = g
		views[name+"/applied"] = applied
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

// TestProximityVectorBatchPushBitIdentical holds the push's two bodies to
// each other: every column of a slab w > 1 wide, swept by the row-slab
// scatter, returns the vector, residual and iteration count of the same
// origin alone, swept by the lone-column scatter.
func TestProximityVectorBatchPushBitIdentical(t *testing.T) {
	p := DefaultParams()
	for name, g := range pushTestViews(t) {
		for _, w := range pushWidths[1:] {
			origins := pushOrigins(g.N(), w)
			pushed, err := ProximityVectorBatch(g, origins, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			for j, u := range origins {
				alone, err := ProximityVector(g, u, p)
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, fmt.Sprintf("%s width=%d origin %d", name, w, u), pushed[j], nil, alone, nil)
			}
		}
	}
}

// TestColumnProbe pins the probe protocol of the slab driver: the probe
// sees every unconverged (column, iteration) once with a tail that bounds
// the distance to the converged vector, a column it stops gets no retire
// call, and the columns left to converge are bit-identical to an unprobed
// run. read is held to its contract with a buffer the probe has dirtied:
// during the ball phase it writes the listed rows and nothing else, and x^t
// is zero at every other node — the far node among them, which no origin
// reaches for the first iterations. Two probing slabs run at once, so -race
// sees any state they share.
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
	want, err := ProximityVectorBatch(web, origins, p, 1)
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
			_, err := ProximityVectorBatchFunc(web, origins, p,
				func(i, iter int, tail float64, read func([]float64) []graph.NodeID) bool {
					if iter != lastIter[i]+1 {
						t.Errorf("column %d: probed at iteration %d after %d", i, iter, lastIter[i])
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
								t.Errorf("column %d iteration %d: read wrote %g at node %d, outside its rows", i, iter, x, v)
							}
							x = 0
						}
						if d := x - want[i].Vector[v]; d > tail || d < -tail {
							t.Errorf("column %d iteration %d: node %d is %g off the converged value, tail %g",
								i, iter, v, d, tail)
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
						t.Errorf("column %d: %d iterations residual %g, unprobed run %d and %g (vectors equal: %v)",
							i, res.Iterations, res.Residual, want[i].Iterations, want[i].Residual, slices.Equal(res.Vector, want[i].Vector))
					}
				})
			if err != nil {
				t.Error(err)
			}
			for i := range origins {
				if retired[i] == (i == stopCol) {
					t.Errorf("column %d: retired=%v", i, retired[i])
				}
				// A converging column is probed on every iteration but its last.
				if wantLast := want[i].Iterations - 1; i != stopCol && lastIter[i] != wantLast {
					t.Errorf("column %d: last probe at iteration %d, want %d", i, lastIter[i], wantLast)
				}
			}
			if lastIter[stopCol] != stopIter {
				t.Errorf("stopped column probed up to iteration %d, want %d", lastIter[stopCol], stopIter)
			}
			if sparseReads == 0 || !farOutside {
				t.Errorf("%d reads handed back a row list, node %d seen outside one: %v", sparseReads, far, farOutside)
			}
		}()
	}
	wg.Wait()
}
