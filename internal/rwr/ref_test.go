package rwr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The reference power loops: the plain iteration x ← (1−α)·M·x + α·e_origin
// from e_origin, one function per direction, written as simply as the
// operator allows. They share no code with the solvers, only the operation
// order a bit-for-bit comparison needs: the forward product scatters over
// out-lists in ascending source order, the transposed one gathers over
// out-lists, both multiply by 1/W(u), and the residual is summed per
// graph.RowBlock rows and then over the blocks in order.

// refForward is dst = A·x: each source u with x[u] ≠ 0 scatters
// x[u]·w(u,v)/W(u) into its out-neighbors, sources ascending.
func refForward(g *graph.Graph, x, dst []float64) {
	clear(dst)
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		if x[u] == 0 {
			continue
		}
		share := x[u] * (1 / g.TotalOutWeight(u))
		ws := g.OutWeightsOf(u)
		for i, v := range g.OutNeighbors(u) {
			if ws == nil {
				dst[v] += share
			} else {
				dst[v] += ws[i] * share
			}
		}
	}
}

// refTransposed is dst = Aᵀ·x: each row u gathers its out-neighbors'
// entries, weighted, and divides by W(u).
func refTransposed(g *graph.Graph, x, dst []float64) {
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		ws := g.OutWeightsOf(u)
		var acc float64
		for i, v := range g.OutNeighbors(u) {
			if ws == nil {
				acc += x[v]
			} else {
				acc += ws[i] * x[v]
			}
		}
		dst[u] = acc * (1 / g.TotalOutWeight(u))
	}
}

// refPower runs the power loop over mul to convergence or the cap; a capped
// run reports MaxIters+1 iterations and the solvers' error.
func refPower(g *graph.Graph, origin graph.NodeID, p Params, mul func(g *graph.Graph, x, dst []float64)) (Result, error) {
	n := g.N()
	x, next := make([]float64, n), make([]float64, n)
	x[origin] = 1
	var residual float64
	for t := 1; t <= p.MaxIters; t++ {
		mul(g, x, next)
		for i := range next {
			next[i] *= 1 - p.Alpha
		}
		next[origin] += p.Alpha
		residual = 0
		for lo := 0; lo < n; lo += graph.RowBlock {
			var block float64
			for i := lo; i < min(lo+graph.RowBlock, n); i++ {
				block += math.Abs(x[i] - next[i])
			}
			residual += block
		}
		x, next = next, x
		if residual < p.Eps {
			return Result{Vector: x, Iterations: t, Residual: residual}, nil
		}
	}
	return Result{Vector: x, Iterations: p.MaxIters + 1, Residual: residual}, errNotConverged(p, residual)
}

func refProximityVector(g *graph.Graph, u graph.NodeID, p Params) (Result, error) {
	return refPower(g, u, p, refForward)
}

func refProximityTo(g *graph.Graph, q graph.NodeID, p Params) (Result, error) {
	return refPower(g, q, p, refTransposed)
}

// sameRun fails unless got is the reference run want bit for bit: error
// text, vector, iteration count and residual.
func sameRun(t *testing.T, label string, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if got.Iterations != want.Iterations || got.Residual != want.Residual {
		t.Fatalf("%s: %d iterations residual %g, reference %d and %g", label, got.Iterations, got.Residual, want.Iterations, want.Residual)
	}
	if len(got.Vector) != len(want.Vector) {
		t.Fatalf("%s: vector of %d entries, reference %d", label, len(got.Vector), len(want.Vector))
	}
	for i := range want.Vector {
		if math.Float64bits(got.Vector[i]) != math.Float64bits(want.Vector[i]) {
			t.Fatalf("%s: node %d is %g, reference %g", label, i, got.Vector[i], want.Vector[i])
		}
	}
}

// referenceViews are the oracle families as built and as patched by an edit
// batch (pushTestViews), plus a web graph of five residual blocks — the
// families span two, which no reordering of a residual sum can tell apart —
// plus the degree-run family, unweighted and weighted.
func referenceViews(t *testing.T) map[string]*graph.Graph {
	views := pushTestViews(t)
	wide, err := gen.WebGraph(5*graph.RowBlock-40, 3)
	if err != nil {
		t.Fatal(err)
	}
	views["web5blocks/csr"] = wide
	for family, weighted := range map[string]bool{"runs": false, "runs-weighted": true} {
		g := degreeRunsGraph(t, weighted)
		views[family+"/csr"] = g
	}
	return views
}

// degreeRunsGraph reaches every path of the CSR's grouped gather
// (kernels.go). Block 0 holds equal-degree runs of every length from 1 to 7,
// at degrees 1–63, and four rows of degree 100, its rows shuffled so no run
// is contiguous in id; block 1 holds degrees 1–8 at random and one row of
// degree 80; n = 2·RowBlock+1, so the last block holds one row. Weighted
// edges weigh 1 or a random value in [0.5, 3).
func degreeRunsGraph(t *testing.T, weighted bool) *graph.Graph {
	const n = 2*graph.RowBlock + 1
	rng := rand.New(rand.NewSource(35))
	var schedule []int
	for run := 0; run < 63; run++ {
		for range run%7 + 1 {
			schedule = append(schedule, run+1)
		}
	}
	schedule = append(schedule, 100, 100, 100, 100)
	deg := make([]int, n)
	for i, u := range rng.Perm(graph.RowBlock) {
		deg[u] = schedule[i]
	}
	for u := graph.RowBlock; u < n; u++ {
		deg[u] = 1 + rng.Intn(8)
	}
	deg[graph.RowBlock+44] = 80
	b := graph.NewBuilder(n)
	for u := range graph.NodeID(n) {
		for _, v := range rng.Perm(n)[:deg[u]] {
			w, heavy := 0.5+2.5*rng.Float64(), rng.Intn(2) == 0
			if weighted && heavy {
				b.AddWeightedEdge(u, graph.NodeID(v), w)
			} else {
				b.AddEdge(u, graph.NodeID(v))
			}
		}
	}
	g, _, err := b.Build(graph.DanglingReject)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSlabMatchesReference holds the forward solver to the reference loop
// bit for bit: every column of ProximityVectorBatch — vector, iterations and
// residual — at widths {1, 2, 5, 16} and workers {1, 2, 3, 8, 33} (the column
// split: one slab per share), and ProximityVector, on every view, with the
// default cap and with one that stops inside the ball phase.
func TestSlabMatchesReference(t *testing.T) {
	p := DefaultParams()
	capped := p
	capped.MaxIters = 3
	for name, g := range referenceViews(t) {
		for _, params := range []Params{p, capped} {
			for _, width := range pushWidths {
				origins := pushOrigins(g.N(), width)
				want := make([]Result, width)
				var firstErr error
				for j, u := range origins {
					var err error
					if want[j], err = refProximityVector(g, u, params); firstErr == nil {
						firstErr = err
					}
				}
				for _, workers := range workerSweep {
					got, err := ProximityVectorBatch(g, origins, params, workers)
					if fmt.Sprint(err) != fmt.Sprint(firstErr) {
						t.Fatalf("%s width=%d workers=%d maxiters=%d: error %v, reference %v", name, width, workers, params.MaxIters, err, firstErr)
					}
					for j := range origins {
						// The batch returns one error, the lowest failing column's.
						label := fmt.Sprintf("%s width=%d workers=%d maxiters=%d column %d", name, width, workers, params.MaxIters, j)
						sameRun(t, label, got[j], nil, want[j], nil)
					}
				}
			}
			for _, u := range pushOrigins(g.N(), 3) {
				want, wantErr := refProximityVector(g, u, params)
				got, err := ProximityVector(g, u, params)
				sameRun(t, fmt.Sprintf("%s ProximityVector(%d) maxiters=%d", name, u, params.MaxIters), got, err, want, wantErr)
			}
		}
	}
}

// TestStepperMatchesReference holds PMPN to the reference loop bit for bit:
// ProximityToParallel at workers {1, 2, 3} and ProximityTo, on every view,
// with the default cap and with one that stops inside the ball phase.
func TestStepperMatchesReference(t *testing.T) {
	p := DefaultParams()
	capped := p
	capped.MaxIters = 3
	for name, g := range referenceViews(t) {
		for q := graph.NodeID(0); int(q) < g.N(); q += 29 {
			for _, params := range []Params{p, capped} {
				want, wantErr := refProximityTo(g, q, params)
				for _, workers := range []int{1, 2, 3} {
					got, err := ProximityToParallel(g, q, params, workers)
					sameRun(t, fmt.Sprintf("%s q=%d workers=%d maxiters=%d", name, q, workers, params.MaxIters), got, err, want, wantErr)
				}
				got, err := ProximityTo(g, q, params)
				sameRun(t, fmt.Sprintf("%s ProximityTo(%d) maxiters=%d", name, q, params.MaxIters), got, err, want, wantErr)
			}
		}
	}
}
