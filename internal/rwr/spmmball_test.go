package rwr

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// slabBallViews returns one graph with every shape a forward ball can take —
// a 1 000-node core (five residual blocks: a 600-node web graph, whose nodes
// reach under half of it, bridged one way into a 400-node social graph, which
// takes the ball past n/2 a level at a time), a three-node sink cycle and a
// dangling node fed from the core, a 40-node ladder that drains into the cycle
// (a ball that grows for twenty levels and closes small) and a node pointing
// at two thirds of the core — as built and as the CSR an edit batch
// (insert, weighted insert, removal, node growth) patches it into. The named
// nodes are valid origins on both.
func slabBallViews(t *testing.T) (views map[string]*graph.Graph, cycle, dangling, ladder, hub graph.NodeID) {
	t.Helper()
	web, err := gen.WebGraph(600, 41)
	if err != nil {
		t.Fatal(err)
	}
	social, err := gen.SocialGraph(400, 23)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	cycle, dangling, ladder, hub = n, n+3, n+4, n+44
	b := graph.NewBuilder(int(hub) + 1)
	for u := graph.NodeID(0); u < n; u++ {
		part, base := web, graph.NodeID(0)
		if u >= 600 {
			part, base = social, 600
		}
		for _, v := range part.OutNeighbors(u - base) {
			b.AddEdge(u, base+v)
		}
	}
	for _, u := range []graph.NodeID{0, 1, 2} {
		b.AddEdge(u, 600+u*150)
	}
	b.AddEdge(5, cycle)
	b.AddEdge(cycle, cycle+1)
	b.AddEdge(cycle+1, cycle+2)
	b.AddEdge(cycle+2, cycle)
	b.AddEdge(7, dangling) // no out-edge: DanglingSelfLoop closes it on itself
	for i := graph.NodeID(0); i < 40; i++ {
		if i+2 < 40 {
			b.AddEdge(ladder+i, ladder+i+2)
		}
		if i+1 < 40 {
			b.AddEdge(ladder+i, ladder+i+1)
		} else {
			b.AddEdge(ladder+i, cycle)
		}
	}
	for v := graph.NodeID(0); v < n; v++ {
		if v%3 != 0 {
			b.AddEdge(hub, v)
		}
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	var del graph.EdgeEdit
	for u := graph.NodeID(0); u < n; u++ {
		if out := g.OutNeighbors(u); len(out) > 1 {
			del = graph.EdgeEdit{From: u, To: out[len(out)-1], Remove: true}
			break
		}
	}
	applied, err := g.Apply([]graph.EdgeEdit{
		del,
		{From: 8, To: 900},
		{From: 15, To: 36, Weight: 3},
		{From: hub + 2, To: 3, Weight: 0.5}, // grows the graph by two nodes
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"csr": g, "applied": applied}, cycle, dangling, ladder, hub
}

// slabHandover replays a slab's ball growth: the iteration at which it hands
// over to the dense loop, 0 if the ball closes under the limit first.
func slabHandover(g *graph.Graph, origins []graph.NodeID, limit int) int {
	b := newBall(g.N(), true, origins...)
	for iter := 1; ; iter++ {
		if !growBall(g, b, limit) {
			return iter
		}
		if len(b.frontier) == 0 {
			return 0
		}
	}
}

// slabEvent is one call a slab made to its probe or its retire function.
type slabEvent struct {
	probe  bool
	i      int
	iter   int
	tail   float64   // probe
	column []float64 // probe: x^t where the probe looked; retire: the vector
	res    float64   // retire
	err    string    // retire
}

func (a slabEvent) equal(b slabEvent) bool {
	return a.probe == b.probe && a.i == b.i && a.iter == b.iter && a.tail == b.tail &&
		a.res == b.res && a.err == b.err && slices.Equal(a.column, b.column)
}

func (a slabEvent) String() string {
	sum := 0.0
	for _, x := range a.column {
		sum += x
	}
	return fmt.Sprintf("{probe %v column %d iteration %d tail %g residual %g error %q vector sum %g}", a.probe, a.i, a.iter, a.tail, a.res, a.err, sum)
}

// dropIter is the iteration at which a probing slab loses a column: inside the
// ball phase of every origin class but the hub's.
const dropIter = 2

// traceSlab runs one slab and records every probe and retire call in order.
// The probe reads into a buffer it has filled with NaNs, takes x^t to be zero
// outside the rows read hands back, and drops column dropCol at iteration
// dropIter (dropCol < 0: none).
func traceSlab(t *testing.T, g *graph.Graph, origins []graph.NodeID, p Params, ballLimit int, withProbe bool, dropCol int) (events []slabEvent, ballIters int, err error) {
	t.Helper()
	n := g.N()
	buf := make([]float64, n)
	var probe ColumnProbe
	if withProbe {
		probe = func(i, iter int, tail float64, read func([]float64) []graph.NodeID) bool {
			ev := slabEvent{probe: true, i: i, iter: iter, tail: tail}
			if iter <= 8 || iter%7 == 0 {
				for u := range buf {
					buf[u] = math.NaN()
				}
				rows := read(buf)
				ev.column = slices.Clone(buf)
				if rows != nil {
					if !slices.IsSorted(rows) || len(rows) >= max(ballLimit, 1) {
						t.Errorf("read returned %d rows (limit %d), sorted %v", len(rows), ballLimit, slices.IsSorted(rows))
					}
					clear(ev.column)
					for _, u := range rows {
						ev.column[u] = buf[u]
					}
				}
			}
			events = append(events, ev)
			return i == dropCol && iter == dropIter
		}
	}
	ballIters, err = spmmBatch(g, origins, p, ballLimit, probe, func(i int, res Result, rerr error) {
		ev := slabEvent{i: i, iter: res.Iterations, column: res.Vector, res: res.Residual}
		if rerr != nil {
			ev.err = rerr.Error()
		}
		if res.Rows != nil {
			t.Errorf("column %d retired with a row list", i)
		}
		events = append(events, ev)
	})
	return events, ballIters, err
}

// TestForwardBallBitIdentical is the contract of the slab's ball
// phase: everything a slab tells its caller — every retired Result and the
// order they retire in, every probe's iteration, tail and column, the cap
// error's text — equals, bit for bit, what the same slab tells it with the
// ball limit set to 0, which sweeps all n rows from the first iteration. Over
// both graphs × widths {1, 3, 16 with repeated origins} × origin sets covering
// every way the two phases can meet × {no probe, a probe that drops a column
// while the slab is still sparse so that it repacks there, MaxIters = 3}.
func TestForwardBallBitIdentical(t *testing.T) {
	views, cycle, dangling, ladder, hub := slabBallViews(t)
	// Each class lists 16 origins; a narrower slab takes a prefix.
	spread := func(from graph.NodeID) []graph.NodeID {
		o := make([]graph.NodeID, 16)
		for j := range o {
			o[j] = (from + graph.NodeID(j)*61) % 1000
		}
		return o
	}
	classes := map[string][]graph.NodeID{
		// Closes at once; the cycle's and the self-loop's columns converge at
		// different iterations, so the slab also repacks while sparse unasked.
		"closed ball": {cycle, dangling, cycle + 1, cycle, dangling, cycle + 2, cycle, cycle, cycle + 1, dangling, cycle, cycle + 2, dangling, cycle, cycle + 1, cycle},
		// Grows for twenty levels, closes far under the limit.
		"hand-over never":   {ladder, ladder + 1, cycle, ladder + 7, ladder, dangling, ladder + 20, ladder + 3, ladder, ladder + 1, ladder + 30, cycle + 1, ladder + 9, ladder, ladder + 2, ladder + 39},
		"hand-over mid-run": spread(2),
		"hub origin":        append([]graph.NodeID{hub}, spread(11)[1:]...),
	}
	p := DefaultParams()
	capped := p
	capped.MaxIters = 3
	sawBall, sawRepackInBall := false, false
	for name, g := range views {
		limit := g.N() / slabBallDivisor
		for class, all := range classes {
			for _, w := range []int{1, 3, 16} {
				origins := all[:w]
				handover := slabHandover(g, origins, limit)
				switch {
				case class == "hub origin" && handover != 1,
					class == "hand-over mid-run" && handover < 3,
					(class == "closed ball" || class == "hand-over never") && handover != 0:
					t.Fatalf("%s %s width %d: ball hands over at iteration %d", name, class, w, handover)
				}
				for _, mode := range []string{"no probe", "probe drops a column", "maxiters=3"} {
					label := fmt.Sprintf("%s, %s, width %d, %s", name, class, w, mode)
					params, withProbe, dropCol := p, mode != "no probe", -1
					if mode == "maxiters=3" {
						params = capped
					}
					if mode == "probe drops a column" {
						dropCol = w / 2
					}
					want, refBall, wantErr := traceSlab(t, g, origins, params, 0, withProbe, dropCol)
					got, ballIters, err := traceSlab(t, g, origins, params, limit, withProbe, dropCol)
					if wantErr != nil || err != nil {
						t.Fatalf("%s: errors %v and %v", label, wantErr, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d probe and retire calls, the dense-only reference made %d", label, len(got), len(want))
					}
					// The ball swept each column's iterations before the
					// hand-over.
					total, wantBall := 0, 0
					for i, ev := range want {
						if !got[i].equal(ev) {
							t.Fatalf("%s: call %d is %v, the dense-only reference's %v", label, i, got[i], ev)
						}
						if leaves := !ev.probe || ev.i == dropCol && ev.iter == dropIter; leaves {
							it := min(ev.iter, params.MaxIters)
							total += it
							if handover == 0 {
								wantBall += it
							} else {
								wantBall += min(it, handover-1)
							}
						}
					}
					if refBall != 0 || ballIters != wantBall || ballIters > total {
						t.Fatalf("%s: %d column-iterations over the ball (reference %d), want %d of %d", label, ballIters, refBall, wantBall, total)
					}
					sawBall = sawBall || ballIters > 0
					sawRepackInBall = sawRepackInBall || (dropCol >= 0 && w > 1 && ballIters > w*dropIter)
				}
			}
		}
	}
	if !sawBall || !sawRepackInBall {
		t.Errorf("ball phase ran: %v, repacked while sparse: %v", sawBall, sawRepackInBall)
	}
}
