package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
)

// View is a read-only, concurrency-safe query façade over one immutable
// (graph, index) pair. Where an Engine owns a BCA workspace and therefore
// serves one goroutine at a time, a View maintains a free list of no-update
// engines and hands each Query call a private one, so any number of
// goroutines may query the same snapshot simultaneously.
//
// A View never mutates its index: its engines run in no-update mode, which
// refines per-candidate state on deep copies (Index.StateSnapshot) and
// commits nothing back. That makes a View safe to share not only across
// goroutines but across index snapshots — a cloned index (lbindex.Clone)
// being refreshed off to the side shares rows with the view's index, and
// neither side ever writes through the shared rows.
//
// The serving daemon (internal/serve) publishes one View per snapshot epoch
// behind an atomic pointer; requests grab the current View once and run
// entirely against it, so a concurrent snapshot swap can never produce a
// torn read.
type View struct {
	g       graph.View
	idx     *lbindex.Index
	engines sync.Pool
}

// NewView binds a graph and index into a shareable read-only view. The pair
// is validated once here, so engine construction inside the pool cannot
// fail later.
func NewView(g graph.View, idx *lbindex.Index) (*View, error) {
	// Surface the node-count mismatch (the only constructor error) now.
	if _, err := NewEngine(g, idx, false); err != nil {
		return nil, err
	}
	v := &View{g: g, idx: idx}
	v.engines.New = func() any {
		e, _ := NewEngine(g, idx, false)
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

// QueryMulti answers a batch of reverse top-k queries through the SpMM tier
// (rwr.ProximityToBatchFunc): all proximity columns advance in one slab,
// amortizing the matrix traffic across the batch, and each query's decision
// step runs on a pooled engine as soon as its column converges — a query
// that converges early delivers early, never waiting for the batch's
// stragglers. Candidates whose refinement budget stalls are NOT resolved
// per query: they are parked past the sweep and resolved once for the whole
// batch, deduplicated across queries — a deferred candidate's forward
// iteration depends only on the candidate, so B queries stalling on
// overlapping hub-adjacent candidates pay for each forward solve once
// (Engine.resolveExact), each decided against its own p_u(q). Only queries
// that actually deferred wait for this phase; their deliveries carry the
// shared resolution wall clock in QueryStats.FallbackElapsed (charged in
// full to each, like QueryBatch).
//
// deliver(i, answer, stats, err) is invoked exactly once per query,
// possibly concurrently from multiple goroutines; QueryMulti returns after
// every delivery has completed. Each answer is identical to
// Query(qs[i], ks[i], workers) — the batched proximity vector is
// bit-identical to the scalar one, each bound decision depends only on it,
// and the deduplicated exact solves are bit-identical to the per-query
// ones.
//
// Validation covers the whole batch up front: on a non-nil error from a
// malformed input, deliver has not been called at all.
func (v *View) QueryMulti(qs []graph.NodeID, ks []int, workers int, deliver func(i int, answer []graph.NodeID, stats QueryStats, err error)) error {
	if len(qs) != len(ks) {
		return fmt.Errorf("core: %d queries but %d k values", len(qs), len(ks))
	}
	n := v.g.N()
	for i, q := range qs {
		if int(q) < 0 || int(q) >= n {
			return fmt.Errorf("core: query node %d out of range [0,%d)", q, n)
		}
		if ks[i] <= 0 || ks[i] > v.idx.K() {
			return fmt.Errorf("core: k=%d outside [1,%d] supported by the index", ks[i], v.idx.K())
		}
	}
	internal := make([]graph.NodeID, len(qs))
	for i, q := range qs {
		internal[i] = v.idx.ToInternal(q)
	}
	// swept is one query's decision-sweep outcome. Goroutines write disjoint
	// entries; parked entries are only read after wg.Wait.
	type swept struct {
		partial []graph.NodeID
		pend    []pendingFallback
		stats   QueryStats
		parked  bool
	}
	state := make([]swept, len(qs))
	start := time.Now()
	var wg sync.WaitGroup
	err := rwr.ProximityToBatchFunc(v.g, internal, v.idx.Options().RWR, workers, func(i int, res rwr.Result, rerr error) {
		pmElapsed := time.Since(start)
		if rerr != nil {
			deliver(i, nil, QueryStats{
				Query: qs[i], K: ks[i],
				PMPNIters: res.Iterations, PMPNElapsed: pmElapsed, Elapsed: pmElapsed,
			}, rerr)
			return
		}
		// Decide off the coordinating goroutine so the surviving columns keep
		// iterating while this query's candidates are screened.
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := v.engines.Get().(*Engine)
			defer v.engines.Put(e)
			e.SetWorkers(workers)
			st := &state[i]
			st.stats = QueryStats{Query: qs[i], K: ks[i], PMPNIters: res.Iterations, PMPNElapsed: pmElapsed}
			var derr error
			st.partial, st.pend, derr = e.decideSetDeferred(internal[i], res.Vector, ks[i], v.idx.OwnedNodes(), &st.stats)
			if derr == nil && len(st.pend) > 0 {
				// Park for the deduplicated batch-wide resolution below.
				st.parked = true
				return
			}
			sort.Slice(st.partial, func(a, b int) bool { return st.partial[a] < st.partial[b] })
			st.stats.Results = len(st.partial)
			st.stats.Elapsed = time.Since(start)
			deliver(i, externalAnswer(v.idx, st.partial), st.stats, derr)
		}()
	})
	wg.Wait()
	if err != nil {
		return err
	}
	// Batch-wide fallback resolution. The exact threshold pkmax(u) depends
	// on k, so parked queries are resolved in groups by their k — the common
	// uniform-k batch resolves in a single group. Groups run in ascending-k
	// order for determinism.
	byK := map[int][]int{}
	for i := range state {
		if state[i].parked {
			byK[ks[i]] = append(byK[ks[i]], i)
		}
	}
	groupKs := make([]int, 0, len(byK))
	for k := range byK {
		groupKs = append(groupKs, k)
	}
	sort.Ints(groupKs)
	for _, k := range groupKs {
		group := byK[k]
		var all []pendingFallback
		var owner []int // all[a] was deferred by query position owner[a]
		for _, i := range group {
			for _, pf := range state[i].pend {
				all = append(all, pf)
				owner = append(owner, i)
			}
		}
		resolveStart := time.Now()
		e := v.engines.Get().(*Engine)
		e.SetWorkers(workers)
		// View engines never update the index, so no commits happen and the
		// onCommit hook is unreachable.
		out, rerr := e.resolveExact(all, k, workers, func(int) {})
		v.engines.Put(e)
		resolveElapsed := time.Since(resolveStart)
		for a, o := range out {
			st := &state[owner[a]]
			st.stats.countFallback(o)
			if o.member {
				st.partial = append(st.partial, all[a].u)
			}
		}
		for _, i := range group {
			st := &state[i]
			st.stats.FallbackElapsed += resolveElapsed
			st.stats.Elapsed = time.Since(start)
			if rerr != nil {
				deliver(i, nil, st.stats, rerr)
				continue
			}
			sort.Slice(st.partial, func(a, b int) bool { return st.partial[a] < st.partial[b] })
			st.stats.Results = len(st.partial)
			deliver(i, externalAnswer(v.idx, st.partial), st.stats, nil)
		}
	}
	return nil
}

// DecideList answers the shard-local decision step for the listed nodes
// against a precomputed proximities-to-query vector, with the given
// intra-engine worker count (≤ 0 selects GOMAXPROCS) — the entry point the
// scatter-gather coordinator fans out to. q, pq and nodes are all in the
// internal label space. Safe for concurrent use; see Engine.DecideList.
func (v *View) DecideList(q graph.NodeID, pq []float64, k int, nodes []graph.NodeID, workers int) ([]graph.NodeID, QueryStats, error) {
	e := v.engines.Get().(*Engine)
	defer v.engines.Put(e)
	e.SetWorkers(workers)
	return e.DecideList(q, pq, k, nodes)
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
