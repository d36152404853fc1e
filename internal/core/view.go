package core

import (
	"errors"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/lbindex"
)

// View is a read-only, concurrency-safe query façade over one immutable
// (graph, index) pair. Where an Engine owns a BCA workspace and therefore
// serves one goroutine at a time, a View maintains a free list of no-update
// engines and hands each Query call a private one, so any number of
// goroutines may query the same snapshot simultaneously.
//
// A View's index is shared, so under lbindex.Index's one-writer rule it is
// immutable, and the View never writes it: its engines run in no-update mode,
// which refines per-candidate state on deep copies (Index.StateSnapshot) and
// commits nothing back. A cloned index (lbindex.Clone) being refreshed off to
// the side shares rows with the view's index, and neither side ever writes
// through the shared rows.
//
// The serving daemon (internal/serve) publishes one View per snapshot epoch
// behind an atomic pointer; requests grab the current View once and run
// entirely against it, so a concurrent snapshot swap can never produce a
// torn read.
type View struct {
	g       *graph.Graph
	idx     *lbindex.Index
	engines sync.Pool
	// zeroBound is shared by every engine the pool hands out. It belongs to
	// the View because the View's index never changes: a new epoch publishes
	// a new View, and with it an empty table.
	zeroBound *zeroBoundTable
}

// zeroBoundTable is what a View reads off its immutable index once per query
// size k — one pass, by the first query at that k — so that no Screen has to.
// Per k it holds the ascending list of rows a proximity of zero does not
// prune: p̂_u(k) ≤ tieTol (defaultTieTol), i.e. u reaches fewer than k nodes
// with any mass worth the name (a sink component smaller than k, a dangling
// node's self-loop). Such a u ranks every node in its top-k, reachable or not,
// so it is in every answer at that k and no screen may skip it; every other row
// the PMPN did not reach is pruned by prunedByLowerBound — the helper the
// pass selects with — without being looked at. It also holds the smallest
// p̂_u(k) among the rows a zero prunes, which sets the residue bound a run's
// first push round drives to (Run.Rounds), and every row's p̂_u(k) in one
// flat column for the dense take.
type zeroBoundTable struct {
	idx  *lbindex.Index
	perK []zeroBoundList // perK[k-1]
}

type zeroBoundList struct {
	once sync.Once
	rows []graph.NodeID
	lo   int       // the first row the index materializes (Index.Rows)
	kth  []float64 // p̂_u(k) at [u-lo], one per row the index materializes
	min  float64   // the smallest p̂_u(k) a zero proximity prunes; +Inf if none
}

func newZeroBoundTable(idx *lbindex.Index) *zeroBoundTable {
	return &zeroBoundTable{idx: idx, perK: make([]zeroBoundList, idx.K())}
}

// list returns the list for k, building it on first use. Safe for concurrent
// use.
func (t *zeroBoundTable) list(k int) *zeroBoundList {
	l := &t.perK[k-1]
	l.once.Do(func() {
		lo, hi := t.idx.Rows()
		l.lo, l.kth, l.min = lo, make([]float64, hi-lo), math.Inf(1)
		for i := range l.kth {
			u := graph.NodeID(lo + i)
			lb := t.idx.KthLowerBound(u, k)
			l.kth[i] = lb
			if !prunedByLowerBound(0, lb, defaultTieTol) {
				l.rows = append(l.rows, u)
			} else {
				l.min = min(l.min, lb)
			}
		}
	})
	return l
}

// NewView binds a graph and index into a shareable read-only view. The pair
// is checked once here, as NewEngine checks it, so engine construction
// inside the pool cannot fail later.
func NewView(g *graph.Graph, idx *lbindex.Index) (*View, error) {
	if err := checkPair(g, idx); err != nil {
		return nil, err
	}
	v := &View{g: g, idx: idx, zeroBound: newZeroBoundTable(idx)}
	v.engines.New = func() any {
		e := newEngine(g, idx, false)
		e.zeroBound = v.zeroBound
		return e
	}
	return v, nil
}

// Query answers one reverse top-k query with the given intra-query worker
// count (≤ 0 selects GOMAXPROCS, as in Engine.SetWorkers). Safe for
// concurrent use; answers are identical at any worker setting.
func (v *View) Query(q graph.NodeID, k, workers int) ([]graph.NodeID, QueryStats, error) {
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	return e.Query(q, k)
}

// Explain runs Engine.Explain through the view's engine pool.
func (v *View) Explain(q graph.NodeID, k int, includePruned bool, workers int) (*Explanation, error) {
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	return e.Explain(q, k, includePruned)
}

// Finish is the pipeline's finish (Engine.finish) for this view's screen of a
// run whose rounds have ended converged, final, or with nothing open on this
// screen — any other screen or run is refused: the members among the view's rows, ascending,
// and a cold query's stats, with the given intra-engine worker count (≤ 0
// selects GOMAXPROCS). The scatter-gather coordinator calls it once a shard.
// Safe for concurrent use.
func (v *View) Finish(r *Run, s *Screen, workers int) ([]graph.NodeID, QueryStats, error) {
	if s.idx != v.idx || !slices.Contains(r.screens, s) || !s.taken || len(s.ids) > 0 && !r.converged && !r.final {
		return nil, QueryStats{RunStats: RunStats{Query: r.q, K: s.k}}, errors.New("core: Finish wants this view's screen of this run, screened with nothing left open, final or to convergence")
	}
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	return e.finish(r, s)
}

// Graph returns the graph this View queries.
func (v *View) Graph() *graph.Graph { return v.g }

// Index returns the view's index.
func (v *View) Index() *lbindex.Index { return v.idx }

// N returns the node count of the underlying graph.
func (v *View) N() int { return v.g.N() }

// MaxK returns the largest query k the underlying index supports.
func (v *View) MaxK() int { return v.idx.K() }
