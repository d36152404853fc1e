package rwr

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// ballHandover replays the ball phase's growth for query node q: the
// iteration at which a ToStepper hands over to the dense sweep (0 if
// the ball closes under the limit and the whole run stays sparse) and the
// ball's size when growth stopped.
func ballHandover(g *graph.Graph, q graph.NodeID) (iter, size int) {
	b := newBall(g.N(), false, q)
	for iter = 1; ; iter++ {
		if !growBall(g, b, g.N()/ballDenseDivisor) {
			return iter, len(b.rows)
		}
		if len(b.frontier) == 0 {
			return 0, len(b.rows)
		}
	}
}

// TestGrowBallIsBackwardBFS holds growBall to a plain breadth-first search
// over in-neighbours: after t calls the row list is exactly the nodes within
// backward distance t of q, ascending.
func TestGrowBallIsBackwardBFS(t *testing.T) {
	for name, g := range pushTestViews(t) {
		n := g.N()
		for q := graph.NodeID(0); int(q) < n; q += 13 {
			dist := map[graph.NodeID]int{q: 0}
			queue := []graph.NodeID{q}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, u := range g.InNeighbors(v) {
					if _, seen := dist[u]; !seen {
						dist[u] = dist[v] + 1
						queue = append(queue, u)
					}
				}
			}
			b := newBall(n, false, q)
			for level := 1; growBall(g, b, n+1); level++ {
				var want []graph.NodeID
				for u, d := range dist {
					if d <= level {
						want = append(want, u)
					}
				}
				slices.Sort(want)
				if !slices.Equal(b.rows, want) {
					t.Fatalf("%s q=%d level %d: ball %v, BFS %v", name, q, level, b.rows, want)
				}
				if len(b.frontier) == 0 {
					break
				}
			}
		}
	}
}

// pmpnIterate is one iteration of a stepper as its accessors report it.
type pmpnIterate struct {
	cur            []float64
	residual, tail float64
}

// TestProximityToParallelBallBitIdentical is the contract of the one PMPN
// driver: a ToStepper's Current, Residual, Tail and Iterations after every
// round, and ProximityToParallel's Result, equal bit for bit those of the
// dense-only reference — the same stepper with its ball limit set to 0, which
// sweeps every row from e_q — at every worker count and round schedule, over
// the oracle graph families as built and as patched by an edit batch. Query
// nodes are picked per graph to cover every way the two phases can meet, and
// each runs with the default cap and with one that runs out inside the ball
// phase. RoundHook fires once per iteration in both phases. With the iterate
// comes the Rows contract: the list is non-nil iff the run has not handed
// over to the dense sweep, ascending, with every index outside it bit-equal
// to +0 — and nil from the forward slab.
func TestProximityToParallelBallBitIdentical(t *testing.T) {
	p := DefaultParams()
	capped := p
	capped.MaxIters = 3 // runs out inside the ball phase of a closed ball
	views := referenceViews(t)
	covered := map[string]bool{}
	for name, g := range views {
		n := g.N()
		picked := map[string][]graph.NodeID{}
		for q := graph.NodeID(0); int(q) < n; q++ {
			iter, size := ballHandover(g, q)
			out := g.OutNeighbors(q)
			var class string
			switch {
			case g.InDegree(q) == 0:
				class = "no in-edges" // ball = {q}
			case len(out) == 1 && out[0] == q:
				class = "dangling self-loop"
			case iter == 1:
				class = "hub" // dense from the first iteration
			case iter > 1:
				class = "hand-over mid-run"
			case iter == 0 && size > 1:
				class = "closed ball"
			default:
				continue
			}
			if len(picked[class]) < 2 {
				picked[class] = append(picked[class], q)
			}
		}
		for class, qs := range picked {
			covered[class] = true
			for _, q := range qs {
				handover, _ := ballHandover(g, q)
				for _, params := range []Params{p, capped} {
					// The reference trace: x^1, x^2, … of the dense-only run.
					ref, err := NewToStepper(g, q, params, 1)
					if err != nil {
						t.Fatal(err)
					}
					ref.ballLimit = 0
					var want []pmpnIterate
					var wantErr error
					for done := false; !done && wantErr == nil; {
						if done, wantErr = ref.Step(1); wantErr == nil {
							want = append(want, pmpnIterate{slices.Clone(ref.Current()), ref.Residual(), ref.Tail()})
						}
					}
					if ref.Rows() != nil {
						t.Fatalf("%s q=%d: the dense-only reference reports a row list", name, q)
					}
					for _, workers := range []int{1, 2, 4} {
						for _, round := range []int{params.MaxIters, 1, 3} {
							label := fmt.Sprintf("%s q=%d (%s) maxiters=%d workers=%d Step(%d)", name, q, class, params.MaxIters, workers, round)
							s, err := NewToStepper(g, q, params, workers)
							if err != nil {
								t.Fatal(err)
							}
							hooked := 0
							s.RoundHook = func(iter int, residual, _ float64) {
								if hooked++; iter != hooked || residual != want[iter-1].residual {
									t.Fatalf("%s: hook call %d reports iteration %d residual %g, reference residual %g",
										label, hooked, iter, residual, want[iter-1].residual)
								}
							}
							for done := false; !done; {
								done, err = s.Step(round)
								if err != nil {
									break
								}
								it := s.Iterations()
								if it > len(want) || hooked != it {
									t.Fatalf("%s: %d iterations and %d hook calls, the reference ran %d", label, it, hooked, len(want))
								}
								w := want[it-1]
								if s.Residual() != w.residual || s.Tail() != w.tail {
									t.Fatalf("%s iteration %d: residual %g tail %g, reference %g and %g",
										label, it, s.Residual(), s.Tail(), w.residual, w.tail)
								}
								for u := range w.cur {
									if s.Current()[u] != w.cur[u] {
										t.Fatalf("%s iteration %d: node %d is %g, reference %g",
											label, it, u, s.Current()[u], w.cur[u])
									}
								}
								// The row list is there iff the run has not handed
								// over, and bounds the iterate from outside.
								if handedOver := handover > 0 && handover <= it; (s.Rows() == nil) != handedOver {
									t.Fatalf("%s iteration %d: Rows nil is %v, handed over (at %d) is %v",
										label, it, s.Rows() == nil, handover, handedOver)
								}
								if s.Rows() != nil {
									checkRowList(t, label, s.Rows(), s.Current())
								}
							}
							if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
								t.Fatalf("%s: error %v, dense-only reference %v", label, err, wantErr)
							}
							if s.Iterations() != len(want) {
								t.Fatalf("%s: stopped after %d iterations, the reference after %d", label, s.Iterations(), len(want))
							}
						}

						// The one-shot wrapper returns the last iterate, with the
						// reference loop's overrun iteration count on a failure.
						label := fmt.Sprintf("%s q=%d (%s) maxiters=%d workers=%d one-shot", name, q, class, params.MaxIters, workers)
						got, err := ProximityToParallel(g, q, params, workers)
						if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
							t.Fatalf("%s: error %v, dense-only reference %v", label, err, wantErr)
						}
						last, iters := want[len(want)-1], len(want)
						if err != nil {
							iters++
						}
						if got.Iterations != iters || got.Residual != last.residual || !slices.Equal(got.Vector, last.cur) {
							t.Fatalf("%s: %d iterations residual %g, reference %d and %g (vectors equal: %v)",
								label, got.Iterations, got.Residual, iters, last.residual, slices.Equal(got.Vector, last.cur))
						}
						if handedOver := handover > 0 && handover <= len(want); (got.Rows == nil) != handedOver {
							t.Fatalf("%s: Rows nil is %v, run handed over is %v (iteration %d of %d)",
								label, got.Rows == nil, handedOver, handover, len(want))
						}
						if got.Rows != nil {
							checkRowList(t, label, got.Rows, got.Vector)
						}
					}
				}
				checkSlabReturnsNoRows(t, g, q, p)
			}
		}
		if class := "no in-edges"; len(picked[class]) > 0 {
			res, err := ProximityToParallel(g, picked[class][0], p, 2)
			if err != nil || res.Iterations != 2 {
				t.Errorf("%s q=%d (%s): %d iterations (err %v), want 2", name, picked[class][0], class, res.Iterations, err)
			}
		}
	}
	for _, class := range []string{"no in-edges", "dangling self-loop", "hub", "hand-over mid-run", "closed ball"} {
		if !covered[class] {
			t.Errorf("no graph has a %q query node; that meeting of the two phases went untested", class)
		}
	}
}

// checkRowList holds a vector to the Rows contract: the list ascends without
// repeats, and every entry of vec outside it is bit-equal to +0.
func checkRowList(t *testing.T, label string, rows []graph.NodeID, vec []float64) {
	t.Helper()
	if !slices.IsSorted(rows) || len(slices.Compact(slices.Clone(rows))) != len(rows) {
		t.Fatalf("%s: row list %v is not strictly ascending", label, rows)
	}
	listed := make([]bool, len(vec))
	for _, u := range rows {
		listed[u] = true
	}
	for u, x := range vec {
		if !listed[u] && math.Float64bits(x) != 0 {
			t.Fatalf("%s: node %d outside the row list holds %g (bits %#x), want +0", label, u, x, math.Float64bits(x))
		}
	}
}

// checkSlabReturnsNoRows runs q through the forward slab, which has a
// ball phase of its own but never claims a row list.
func checkSlabReturnsNoRows(t *testing.T, g *graph.Graph, q graph.NodeID, p Params) {
	t.Helper()
	batch, err := ProximityVectorBatch(g, []graph.NodeID{q, 0}, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range batch {
		if res.Rows != nil {
			t.Fatalf("q=%d: the slab driver returned rows %v", q, res.Rows)
		}
	}
}
