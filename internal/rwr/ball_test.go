package rwr

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// ballHandover replays the ball phase's growth for query node q: the
// iteration at which ProximityToParallel hands over to the dense loop (0 if
// the ball closes under the limit and the whole run stays sparse) and the
// ball's size when growth stopped.
func ballHandover(g graph.View, q graph.NodeID) (iter, size int) {
	b := newBackwardBall(g.N(), q)
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
			b := newBackwardBall(n, q)
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

// TestProximityToParallelBallBitIdentical is the contract of the ball phase:
// ProximityToParallel returns the vector, residual and iteration count of the
// dense loop alone (pmpnDense from e_q), bit for bit, at every worker
// count, over the oracle graph families as CSR, post-Apply Overlay and
// post-Compact CSR. Query nodes are picked per view to cover every way the
// two phases can meet. With the vector comes the Result.Rows contract: the
// list is non-nil iff the run never handed over to pmpnDense, ascending, with
// every index outside it bit-equal to +0, and nil from the dense, stepper and
// slab drivers.
func TestProximityToParallelBallBitIdentical(t *testing.T) {
	p := DefaultParams()
	capped := p
	capped.MaxIters = 3 // runs out inside the ball phase of a closed ball
	covered := map[string]bool{}
	for name, g := range pushTestViews(t) {
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
				for _, params := range []Params{p, capped} {
					e := make([]float64, n)
					e[q] = 1
					want, wantErr := pmpnDense(g, q, params, 1, e, make([]float64, n), 1)
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("%s q=%d (%s) maxiters=%d workers=%d", name, q, class, params.MaxIters, workers)
						got, err := ProximityToParallel(g, q, params, workers)
						if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
							t.Fatalf("%s: error %v, dense loop %v", label, err, wantErr)
						}
						if got.Iterations != want.Iterations || got.Residual != want.Residual {
							t.Fatalf("%s: %d iterations residual %g, dense loop %d and %g",
								label, got.Iterations, got.Residual, want.Iterations, want.Residual)
						}
						for u := range want.Vector {
							if got.Vector[u] != want.Vector[u] {
								t.Fatalf("%s: node %d is %g, dense loop %g", label, u, got.Vector[u], want.Vector[u])
							}
						}
						// The row list is there iff the run never reached
						// pmpnDense, and bounds the support from outside.
						iter, _ := ballHandover(g, q)
						handedOver := iter > 0 && iter <= min(got.Iterations, params.MaxIters)
						if (got.Rows == nil) != handedOver {
							t.Fatalf("%s: Rows nil is %v, run handed over is %v (iteration %d of %d)",
								label, got.Rows == nil, handedOver, iter, got.Iterations)
						}
						if got.Rows != nil {
							checkRowList(t, label, got)
						}
					}
					if want.Rows != nil {
						t.Fatalf("%s q=%d: pmpnDense returned a row list", name, q)
					}
				}
				checkDenseDriversReturnNoRows(t, g, q, p)
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
			t.Errorf("no view has a %q query node; that meeting of the two phases went untested", class)
		}
	}
}

// checkRowList holds a Result to the Rows contract: ascending without
// repeats, and every entry of Vector outside it bit-equal to +0.
func checkRowList(t *testing.T, label string, res Result) {
	t.Helper()
	if !slices.IsSorted(res.Rows) || len(slices.Compact(slices.Clone(res.Rows))) != len(res.Rows) {
		t.Fatalf("%s: row list %v is not strictly ascending", label, res.Rows)
	}
	listed := make([]bool, len(res.Vector))
	for _, u := range res.Rows {
		listed[u] = true
	}
	for u, x := range res.Vector {
		if !listed[u] && math.Float64bits(x) != 0 {
			t.Fatalf("%s: node %d outside the row list holds %g (bits %#x), want +0", label, u, x, math.Float64bits(x))
		}
	}
}

// checkDenseDriversReturnNoRows runs q through every PMPN driver that sweeps
// all rows; none of them may claim a row list.
func checkDenseDriversReturnNoRows(t *testing.T, g graph.View, q graph.NodeID, p Params) {
	t.Helper()
	if res, err := ProximityTo(g, q, p); err != nil || res.Rows != nil {
		t.Fatalf("q=%d: ProximityTo returned rows %v (err %v)", q, res.Rows, err)
	}
	st, err := NewToStepper(g, q, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(p.MaxIters); err != nil || st.Result().Rows != nil {
		t.Fatalf("q=%d: ToStepper returned rows %v (err %v)", q, st.Result().Rows, err)
	}
	batch, err := ProximityToBatch(g, []graph.NodeID{q, 0}, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range batch {
		if res.Rows != nil {
			t.Fatalf("q=%d: the slab driver returned rows %v", q, res.Rows)
		}
	}
}
