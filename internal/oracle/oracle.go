// Package oracle is the test suite's one brute-force answer table for
// reverse top-k queries: the paper's §3 method, written once. It holds a
// fixed set of graph families, the query nodes of each, and one expected
// answer per (family, q, k), read from one rwr.ProximityMatrix per family
// under one membership rule (see Want). Every package's tests run their
// entry points as rows against it:
//
//	tab := oracle.Family(t, "web")
//	eng, _ := core.NewEngine(tab.Graph, tab.Index(t), false)
//	oracle.Check(t, "Engine.Query", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
//		ans, _, err := eng.Query(q, k)
//		return ans, err
//	})
//
// A new entry point costs one such row; a new family one case in build.
// The package imports no package that has a query entry point (core, serve,
// shard), so their in-package tests can import it.
package oracle

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/workload"
)

// TieTol is the tolerance of the membership boundary: the engine's own
// (core's defaultTieTol, which core's tests hold it to).
const TieTol = 1e-9

// K is the depth every family is indexed at.
const K = 20

// Table is one graph with its expected answers.
type Table struct {
	Name  string
	Graph *graph.Graph
	// Queries are the table's query nodes: a seeded sample, the two nodes of
	// highest in-degree (hubs), and the nodes the family was built around.
	Queries []graph.NodeID
	// Ks are the k every row is checked at: 1, a middle k and the index's K.
	Ks []int
	// Edits is the one edit batch of the family — a removal, two weighted
	// insertions and a new node with an edge each way — and Applied the
	// table of the graph it gives. Both are nil on an applied table.
	Edits []graph.EdgeEdit

	opts lbindex.Options
	cols [][]float64

	kthMu sync.Mutex
	kth   map[int][]float64 // k → pkmax_u for every u, computed on first use

	idxOnce sync.Once
	idx     *lbindex.Index
	idxErr  error

	appliedOnce sync.Once
	applied     *Table
	appliedErr  error
}

// Want is the expected answer to (q, k), ascending and never nil: every u
// with p_u(q) ≥ pkmax_u − TieTol, pkmax_u the k-th largest entry of p_u —
// rwr.ReverseTopK, the membership rule core.BruteForce applies too.
func (tb *Table) Want(q graph.NodeID, k int) []graph.NodeID {
	tb.kthMu.Lock()
	pkmax := tb.kth[k]
	if pkmax == nil {
		pkmax = rwr.KthColumns(tb.cols, k)
		tb.kth[k] = pkmax
	}
	tb.kthMu.Unlock()
	return rwr.ReverseTopK(tb.cols, pkmax, q, TieTol)
}

// Index returns a clone of the table's index, built once with Options: the
// caller may commit into it.
func (tb *Table) Index(t testing.TB) *lbindex.Index {
	t.Helper()
	tb.idxOnce.Do(func() {
		tb.idx, _, tb.idxErr = lbindex.Build(tb.Graph, tb.opts)
	})
	if tb.idxErr != nil {
		t.Fatalf("oracle: indexing %s: %v", tb.Name, tb.idxErr)
	}
	return tb.idx.Clone()
}

// Applied returns the table of the graph Edits gives — the layout the
// daemon serves after an edit batch, grown by one node — with the base
// table's queries plus the new node.
func (tb *Table) Applied(t testing.TB) *Table {
	t.Helper()
	if tb.Edits == nil {
		t.Fatalf("oracle: %s has no edit batch", tb.Name)
	}
	tb.appliedOnce.Do(func() {
		var g *graph.Graph
		if g, tb.appliedErr = tb.Graph.Apply(tb.Edits); tb.appliedErr != nil {
			return
		}
		queries := append(slices.Clone(tb.Queries), graph.NodeID(tb.Graph.N()))
		tb.applied, tb.appliedErr = newTable(tb.Name+"/applied", g, queries, tb.Ks, tb.opts)
	})
	if tb.appliedErr != nil {
		t.Fatalf("oracle: applying %s's edits: %v", tb.Name, tb.appliedErr)
	}
	return tb.applied
}

// Families lists the families, in the order rows run them.
func Families() []string {
	return []string{"web", "coauthor", "spam", "sinks", "social", "skewed", "ties", "bridged"}
}

var (
	familiesMu sync.Mutex
	families   = map[string]*familyEntry{}
)

type familyEntry struct {
	once sync.Once
	tab  *Table
	err  error
}

// Family returns the named family's table, built once per process.
func Family(t testing.TB, name string) *Table {
	t.Helper()
	familiesMu.Lock()
	e := families[name]
	if e == nil {
		e = &familyEntry{}
		families[name] = e
	}
	familiesMu.Unlock()
	e.once.Do(func() { e.tab, e.err = buildFamily(name) })
	if e.err != nil {
		t.Fatalf("oracle: family %s: %v", name, e.err)
	}
	return e.tab
}

// Of returns the table of a graph a test made itself (an epoch the daemon
// published, a shape no family has), at Ks {1, K/2, K} and the families'
// seeded query sample. It has no edit batch and indexes at depth K.
func Of(t testing.TB, g *graph.Graph, k int) *Table {
	t.Helper()
	queries, err := sample(g)
	if err != nil {
		t.Fatal(err)
	}
	ks := slices.Compact([]int{1, max(1, k/2), k})
	tb, err := newTable(fmt.Sprintf("graph of %d nodes", g.N()), g, queries, ks, indexOptions(k))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// Other returns a graph of the web family's node count that the web
// family's index was not built on: what every constructor pairing a graph
// with an index must refuse.
func Other(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.WebGraph(webNodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != webNodes {
		t.Fatalf("oracle: the other web graph has %d nodes, want %d", g.N(), webNodes)
	}
	return g
}

// Check runs query, one entry point's exact answer, at every (q, k) of tab
// and fails t at the first answer that is not the table's. row names the
// entry point in the failure.
func Check(t testing.TB, row string, tab *Table, query func(q graph.NodeID, k int) ([]graph.NodeID, error)) {
	t.Helper()
	for _, k := range tab.Ks {
		for _, q := range tab.Queries {
			got, err := query(q, k)
			if err != nil {
				t.Fatalf("%s on %s q=%d k=%d: %v", row, tab.Name, q, k, err)
			}
			if want := tab.Want(q, k); !slices.Equal(got, want) {
				t.Fatalf("%s on %s q=%d k=%d: answered %v, brute force %v", row, tab.Name, q, k, got, want)
			}
		}
	}
}

// CheckAnytime runs query, one entry point's two-part answer, at every
// (q, k) of tab and fails t at the first that does not bracket the table's.
func CheckAnytime(t testing.TB, row string, tab *Table, query func(q graph.NodeID, k int) (guaranteed, maybe []graph.NodeID, err error)) {
	t.Helper()
	for _, k := range tab.Ks {
		for _, q := range tab.Queries {
			guaranteed, maybe, err := query(q, k)
			if err != nil {
				t.Fatalf("%s on %s q=%d k=%d: %v", row, tab.Name, q, k, err)
			}
			if err := Brackets(guaranteed, maybe, tab.Want(q, k)); err != nil {
				t.Fatalf("%s on %s q=%d k=%d: %v", row, tab.Name, q, k, err)
			}
		}
	}
}

// Brackets reports whether guaranteed ⊆ exact ⊆ guaranteed ∪ maybe.
func Brackets(guaranteed, maybe, exact []graph.NodeID) error {
	for _, u := range guaranteed {
		if !slices.Contains(exact, u) {
			return fmt.Errorf("guaranteed node %d not in the exact answer %v", u, exact)
		}
	}
	for _, u := range exact {
		if !slices.Contains(guaranteed, u) && !slices.Contains(maybe, u) {
			return fmt.Errorf("exact node %d in neither guaranteed %v nor maybe %v", u, guaranteed, maybe)
		}
	}
	return nil
}

// CheckPairing is the row of one constructor that pairs a graph with an
// index (construct returns its error). Over the web family's index it must
// refuse another graph of the same node count and the family's graph with
// one edge weight changed, and accept the family's own graph and an equal
// one built apart. Each call gets its own clone of the index.
func CheckPairing(t testing.TB, row string, construct func(g *graph.Graph, idx *lbindex.Index) error) {
	t.Helper()
	tab := Family(t, "web")
	apart, err := gen.WebGraph(webNodes, webSeed)
	if err != nil {
		t.Fatal(err)
	}
	u := graph.NodeID(3)
	x := tab.Graph.OutNeighbors(u)[0]
	reweighted, err := tab.Graph.Apply([]graph.EdgeEdit{{From: u, To: x, Remove: true}, {From: u, To: x, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		accept bool
	}{
		{"another graph of the same node count", Other(t), false},
		{"the graph with one edge weight changed", reweighted, false},
		{"the index's own graph", tab.Graph, true},
		{"an equal graph built apart", apart, true},
	} {
		err := construct(c.g, tab.Index(t))
		if c.accept && err != nil {
			t.Errorf("%s refused %s: %v", row, c.name, err)
		}
		if !c.accept && err == nil {
			t.Errorf("%s accepted %s", row, c.name)
		}
	}
}

const (
	webNodes = 300
	webSeed  = 41
)

// indexOptions are the options every table indexes with at depth k.
func indexOptions(k int) lbindex.Options {
	opts := lbindex.DefaultOptions()
	opts.K = k
	opts.HubBudget = 5
	opts.Workers = 2
	return opts
}

// sample is the seeded query sample plus the two nodes of highest
// in-degree, without repeats.
func sample(g *graph.Graph) ([]graph.NodeID, error) {
	qs, err := workload.Queries(g.N(), 6, 55)
	if err != nil {
		return nil, err
	}
	qs = append(qs, graph.TopByInDegree(g, 2)...)
	var out []graph.NodeID
	for _, q := range qs {
		if !slices.Contains(out, q) {
			out = append(out, q)
		}
	}
	return out, nil
}

func newTable(name string, g *graph.Graph, queries []graph.NodeID, ks []int, opts lbindex.Options) (*Table, error) {
	cols, err := rwr.ProximityMatrix(g, opts.RWR, 0)
	if err != nil {
		return nil, err
	}
	return &Table{Name: name, Graph: g, Queries: queries, Ks: ks, opts: opts, cols: cols, kth: map[int][]float64{}}, nil
}

func buildFamily(name string) (*Table, error) {
	opts := indexOptions(K)
	var (
		g      *graph.Graph
		extras []graph.NodeID
		err    error
	)
	switch name {
	case "web":
		g, err = gen.WebGraph(webNodes, webSeed)
	case "coauthor":
		g, _, err = gen.Coauthor(gen.CoauthorOptions{
			Authors: 250, Communities: 6, Prolific: 3,
			PapersPerAuthor: 5, CoauthorsPerPaper: 2, Seed: 17,
		})
	case "spam":
		g, _, err = gen.SpamWeb(gen.SpamWebOptions{
			Normal: 180, Spam: 50, Undecided: 25, Farms: 2,
			FarmDensity: 6, NormalOut: 5, SpamToNormal: 2,
			NormalToSpam: 0.02, Seed: 7,
		})
	case "sinks":
		g, err = sinksGraph()
	case "social":
		// Indexed at socialEta, most of its BCA runs stop with their residue
		// spread below η: the states the index stores summarized.
		g, err = gen.SocialGraph(512, 41)
		opts.BCA.Eta = socialEta
	case "skewed":
		g, err = skewedGraph()
	case "ties":
		g, extras, err = tiesGraph()
	case "bridged":
		g, err = bridgedGraph()
	default:
		err = fmt.Errorf("unknown family")
	}
	if err != nil {
		return nil, err
	}
	queries, err := sample(g)
	if err != nil {
		return nil, err
	}
	for _, q := range extras {
		if !slices.Contains(queries, q) {
			queries = append(queries, q)
		}
	}
	tb, err := newTable(name, g, queries, []int{1, 10, K}, opts)
	if err != nil {
		return nil, err
	}
	tb.Edits = editBatch(g)
	return tb, nil
}

// socialEta is the η the social family is indexed at. At 512 nodes it
// spreads most BCA runs' residue wholly below η, as the 4 096-node social
// fixture's 1e-4 does, so the index stores those states summarized.
const socialEta = 5e-4

// editBatch is a family's one edit batch: one edge removed, two weighted
// ones inserted, and a new node n fed by one old node and feeding another.
// Every old endpoint is below 100, so none touches the sinks family's small
// components.
func editBatch(g *graph.Graph) []graph.EdgeEdit {
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
	n := graph.NodeID(g.N())
	return append(edits, graph.EdgeEdit{From: 11, To: n}, graph.EdgeEdit{From: n, To: 13})
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
func sinksGraph() (*graph.Graph, error) {
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
	return graph.FromEdges(int(next), edges, graph.DanglingSelfLoop)
}

// skewedGraph is a 250-node web graph whose edges carry one of three
// weights by edge type, 1, 10 or 100 — the skew of a per-edge-type restart
// weighting (Jin, Jung and Kang) — so a walk's next step is far from
// uniform over a node's out-edges. The type depends on both endpoints.
func skewedGraph() (*graph.Graph, error) {
	web, err := gen.WebGraph(250, 43)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(web.N())
	for u := graph.NodeID(0); int(u) < web.N(); u++ {
		for _, v := range web.OutNeighbors(u) {
			b.AddWeightedEdge(u, v, []float64{1, 10, 100}[(int(u)+2*int(v))%3])
		}
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	return g, err
}

// tiesGraph puts exact ties at the k-th rank. A 160-node random core feeds
// two fans, each a center with 24 leaves that link back to it alone: the
// leaves' proximities from the center (and from its feeder) are equal bit
// for bit, ranks 2 to 25 of the center's list, so its k-th rank is a tie at
// k = 10 and k = 20. Beside them stands a twin pair with identical in- and
// out-neighbourhoods. It returns a leaf of each fan and a twin as extra
// query nodes.
func tiesGraph() (*graph.Graph, []graph.NodeID, error) {
	const core = 160
	rng := rand.New(rand.NewSource(29))
	b := graph.NewBuilder(core)
	for i := 0; i < 4*core; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(core)), graph.NodeID(rng.Intn(core)))
	}
	next := graph.NodeID(core)
	var extras []graph.NodeID
	for _, feeder := range []graph.NodeID{3, 90} {
		center := next
		next++
		b.AddEdge(feeder, center)
		for range 24 {
			b.AddEdge(center, next)
			b.AddEdge(next, center)
			next++
		}
		extras = append(extras, next-1)
	}
	for _, twin := range []graph.NodeID{next, next + 1} {
		for _, src := range []graph.NodeID{5, 17, 58, 90} {
			b.AddEdge(src, twin)
		}
		b.AddEdge(twin, 8)
	}
	extras = append(extras, next)
	g, _, err := b.Build(graph.DanglingSelfLoop)
	return g, extras, err
}

// bridgedGraph is a 200-node web graph bridged one way into a 150-node
// social graph: three web nodes link into it, so a web node's forward ball
// can cross into a graph that mixes fast, and a social node's backward ball
// reaches back into the web side.
func bridgedGraph() (*graph.Graph, error) {
	web, err := gen.WebGraph(200, 41)
	if err != nil {
		return nil, err
	}
	social, err := gen.SocialGraph(150, 23)
	if err != nil {
		return nil, err
	}
	base := graph.NodeID(web.N())
	b := graph.NewBuilder(web.N() + social.N())
	for u := graph.NodeID(0); int(u) < web.N(); u++ {
		for _, v := range web.OutNeighbors(u) {
			b.AddEdge(u, v)
		}
	}
	for u := graph.NodeID(0); int(u) < social.N(); u++ {
		for _, v := range social.OutNeighbors(u) {
			b.AddEdge(base+u, base+v)
		}
	}
	for _, u := range []graph.NodeID{0, 1, 2} {
		b.AddEdge(u, base+u*50)
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	return g, err
}
