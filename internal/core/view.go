package core

import (
	"errors"
	"slices"
	"sort"
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
	g       graph.View
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
// outside q's backward ball is pruned by prunedByLowerBound — the helper the
// pass selects with — without being looked at. It also holds the largest
// p̂_u(k), which sizes a run's first round (Run.Rounds), and, on a full index,
// every row's p̂_u(k) in one flat column for the dense take; a shard slice's
// rows are not indexed by node, so it has none.
type zeroBoundTable struct {
	idx  *lbindex.Index
	perK []zeroBoundList // perK[k-1]
}

type zeroBoundList struct {
	once sync.Once
	rows []graph.NodeID
	kth  []float64 // p̂_u(k) at [u]; nil on a shard slice
	max  float64   // the largest p̂_u(k)
	n    int       // rows the index materializes
}

func newZeroBoundTable(idx *lbindex.Index) *zeroBoundTable {
	return &zeroBoundTable{idx: idx, perK: make([]zeroBoundList, idx.K())}
}

// list returns the list for k, building it on first use. Safe for concurrent
// use.
func (t *zeroBoundTable) list(k int) *zeroBoundList {
	l := &t.perK[k-1]
	l.once.Do(func() {
		if _, _, slice := t.idx.Shard(); !slice {
			l.kth = make([]float64, t.idx.N())
		}
		n, at := indexedRows(t.idx)
		l.n = n
		for i := range n {
			u := at(i)
			lb := t.idx.KthLowerBound(u, k)
			if l.kth != nil {
				l.kth[u] = lb
			}
			l.max = max(l.max, lb)
			if !prunedByLowerBound(0, lb, defaultTieTol) {
				l.rows = append(l.rows, u)
			}
		}
	})
	return l
}

// NewView binds a graph and index into a shareable read-only view. The pair
// is validated once here, so engine construction inside the pool cannot
// fail later.
func NewView(g graph.View, idx *lbindex.Index) (*View, error) {
	// Surface the node-count mismatch (the only constructor error) now.
	if _, err := NewEngine(g, idx, false); err != nil {
		return nil, err
	}
	v := &View{g: g, idx: idx, zeroBound: newZeroBoundTable(idx)}
	v.engines.New = func() any {
		e, _ := NewEngine(g, idx, false)
		e.zeroBound = v.zeroBound
		return e
	}
	return v, nil
}

// Query answers one reverse top-k query with the given intra-query worker
// count (≤ 0 selects GOMAXPROCS, as in Engine.SetWorkers). Safe for
// concurrent use; answers are identical at any worker setting.
//
// The View is the identifier-translation boundary for cache-aware
// relabelings (lbindex.Index.Relabeling): q and the answer are in the
// EXTERNAL space callers speak, translated to and from the internal storage
// labels the graph and index were built under. With no relabeling installed
// both spaces coincide and translation is free.
func (v *View) Query(q graph.NodeID, k, workers int) ([]graph.NodeID, QueryStats, error) {
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	answer, stats, err := e.Query(v.idx.ToInternal(q), k)
	stats.Query = q
	return externalAnswer(v.idx, answer), stats, err
}

// Explain runs Engine.Explain through the view's engine pool, translating
// the query and every decision's node across the relabeling boundary like
// Query does. Decisions come back ordered by external node id.
func (v *View) Explain(q graph.NodeID, k int, includePruned bool, workers int) (*Explanation, error) {
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	ex, err := e.Explain(v.idx.ToInternal(q), k, includePruned)
	if err != nil {
		return nil, err
	}
	if v.idx.Relabeling() != nil {
		ex.Query = q
		ex.Stats.Query = q
		for i := range ex.Decisions {
			ex.Decisions[i].Node = v.idx.ToExternal(ex.Decisions[i].Node)
		}
		sort.Slice(ex.Decisions, func(i, j int) bool { return ex.Decisions[i].Node < ex.Decisions[j].Node })
	}
	return ex, nil
}

// Finish is the pipeline's finish (Engine.finish) for this view's screen of a
// run whose rounds have ended converged, or with nothing open — any other
// screen or run is refused: the members among the view's rows — internal
// labels, ascending — and a cold query's stats, with the given intra-engine
// worker count (≤ 0 selects GOMAXPROCS). The scatter-gather coordinator calls
// it once a shard. Safe for concurrent use.
func (v *View) Finish(r *Run, s *Screen, workers int) ([]graph.NodeID, QueryStats, error) {
	if s.idx != v.idx || !slices.Contains(r.screens, s) || !s.taken || len(s.ids) > 0 && !r.stepper.Converged() {
		return nil, QueryStats{Query: r.q, K: s.k}, errors.New("core: Finish wants this view's screen of this run, screened with nothing left open or to convergence")
	}
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	return e.finish(r, s)
}

// Graph returns the graph view this View queries (a base CSR *graph.Graph
// or a *graph.Overlay carrying un-compacted edits).
func (v *View) Graph() graph.View { return v.g }

// Index returns the view's index.
func (v *View) Index() *lbindex.Index { return v.idx }

// N returns the node count of the underlying graph.
func (v *View) N() int { return v.g.N() }

// MaxK returns the largest query k the underlying index supports.
func (v *View) MaxK() int { return v.idx.K() }

// externalAnswer maps an internally-labeled answer back to the external
// identifier space and restores ascending order. With no relabeling the
// spaces coincide and the slice passes through untouched.
func externalAnswer(idx *lbindex.Index, answer []graph.NodeID) []graph.NodeID {
	if idx.Relabeling() == nil {
		return answer
	}
	for i, u := range answer {
		answer[i] = idx.ToExternal(u)
	}
	sort.Slice(answer, func(i, j int) bool { return answer[i] < answer[j] })
	return answer
}
