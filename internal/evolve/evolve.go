// Package evolve implements the paper's stated future work (§7): reverse
// top-k search on evolving graphs. "The key challenge is how to maintain
// the index incrementally" — this package provides that maintenance, at
// two granularities:
//
//  1. Graph: ApplyEdits rebuilds the immutable CSR from scratch (O(N+M),
//     the reference semantics), while graph.Overlay.Apply realizes the
//     same edit batch as a delta in O(edits). The differential tests in
//     this package hold the two equal.
//  2. Index: AffectedNodes bounds the blast radius of an edit batch:
//     changing the out-edges of source node s changes column s of the
//     transition matrix, and the proximity vector p_w of origin w changes
//     only in proportion to how much random-walk mass w sends through s —
//     i.e. p_w(s). One PMPN run per edited source (Theorem 2) yields these
//     quantities for ALL origins exactly; origins with p_w(s) below a
//     staleness threshold θ keep their (slightly stale) index entries.
//     The same quantity classifies hubs: a hub vector p_h changes only if
//     p_h(s) > 0 for some edited source, so RefreshPartial recomputes only
//     the affected hubs' proximity vectors and reuses the rest bit for
//     bit.
//
// With θ = 0 a refresh is equivalent to a full rebuild (every origin that
// can reach an edited source is refreshed); θ > 0 trades accuracy on
// far-away origins for speed, with the error vanishing as p_w(s) → 0.
// The serving daemon (internal/serve) composes these pieces into its
// asynchronous maintenance pipeline: overlay apply → affected-set
// computation → partial refresh of an index clone → epoch publish.
package evolve

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/lbindex"
	"repro/internal/rwr"
)

// Edit describes one edge mutation. Weight is used for insertions into
// weighted graphs (1 if zero); Remove deletes the edge if present. It is
// an alias of graph.EdgeEdit so batches flow between the rebuild path here
// and graph.Overlay.Apply without conversion.
type Edit = graph.EdgeEdit

// ApplyEdits rebuilds the graph with the edits applied, in order. Node
// identifiers are preserved (the node count can grow if an edit names a
// new node). The dangling policy handles sources whose last out-edge was
// removed. Removing a non-existent edge is an error, as is inserting a
// duplicate.
//
// This is the O(N+M) reference implementation; graph.Overlay.Apply applies
// the same batch as an O(edits) delta with identical semantics (under the
// self-loop policy) and is what the serving pipeline uses.
func ApplyEdits(g *graph.Graph, edits []Edit, policy graph.DanglingPolicy) (*graph.Graph, error) {
	type key struct{ u, v graph.NodeID }
	removed := make(map[key]bool)
	added := make(map[key]float64)
	for _, e := range edits {
		k := key{e.From, e.To}
		if e.Remove {
			if added[k] != 0 {
				delete(added, k)
				continue
			}
			if int(e.From) >= g.N() || g.EdgeWeight(e.From, e.To) == 0 || removed[k] {
				return nil, fmt.Errorf("evolve: removing non-existent edge %d→%d", e.From, e.To)
			}
			removed[k] = true
			continue
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return nil, fmt.Errorf("evolve: negative weight on edge %d→%d", e.From, e.To)
		}
		if w < graph.MinNormalWeight {
			// Mirror graph.Overlay.Apply (and graph.Builder): a subnormal
			// weight can sum into a subnormal out-weight normalizer whose
			// reciprocal overflows to +Inf and NaN-poisons proximity scores.
			return nil, fmt.Errorf("evolve: subnormal weight %g on edge %d→%d (minimum %g)", w, e.From, e.To, graph.MinNormalWeight)
		}
		exists := int(e.From) < g.N() && int(e.To) < g.N() && g.EdgeWeight(e.From, e.To) != 0
		if exists && !removed[k] {
			return nil, fmt.Errorf("evolve: inserting duplicate edge %d→%d (remove it first to change its weight)", e.From, e.To)
		}
		// Note: a prior removal of the same edge stays in force — the
		// original edge is skipped during the rebuild and the new weight
		// inserted — which is exactly how weight changes are expressed.
		added[k] = w
	}

	b := graph.NewBuilder(g.N())
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		nbrs := g.OutNeighbors(u)
		ws := g.OutWeightsOf(u)
		for i, v := range nbrs {
			if removed[key{u, v}] {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			b.AddWeightedEdge(u, v, w)
		}
	}
	for k, w := range added {
		b.AddWeightedEdge(k.u, k.v, w)
	}
	g2, _, err := b.Build(policy)
	return g2, err
}

// Sources returns the distinct source nodes whose transition-matrix column
// the edits change, sorted ascending.
func Sources(edits []Edit) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, e := range edits {
		if !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AffectedNodes returns, for every node w of the NEW graph, whether
// p_w(s) ≥ θ for at least one edited source s — computed exactly with one
// PMPN run per source. θ = 0 flags every node that reaches any edited
// source. The returned mask drives both origin refreshes (every flagged
// non-hub origin is re-indexed) and partial hub refreshes (every flagged
// hub's proximity vector is recomputed); unflagged nodes keep their index
// entries and hub vectors untouched.
func AffectedNodes[G graph.View](g2 G, sources []graph.NodeID, theta float64, p rwr.Params) ([]bool, error) {
	if theta < 0 {
		return nil, fmt.Errorf("evolve: negative staleness threshold %g", theta)
	}
	affected := make([]bool, g2.N())
	for _, s := range sources {
		if int(s) < 0 || int(s) >= g2.N() {
			return nil, fmt.Errorf("evolve: source %d out of range [0,%d)", s, g2.N())
		}
		res, err := rwr.ProximityTo(g2, s, p)
		if err != nil {
			return nil, err
		}
		for w, v := range res.Vector {
			if v > theta || (theta == 0 && v > 0) {
				affected[w] = true
			}
		}
	}
	return affected, nil
}

// AffectedOrigins returns every origin w with p_w(s) ≥ θ for at least one
// edited source s, sorted ascending. See AffectedNodes.
func AffectedOrigins[G graph.View](g2 G, sources []graph.NodeID, theta float64, p rwr.Params) ([]graph.NodeID, error) {
	affected, err := AffectedNodes(g2, sources, theta, p)
	if err != nil {
		return nil, err
	}
	var out []graph.NodeID
	for w, a := range affected {
		if a {
			out = append(out, graph.NodeID(w))
		}
	}
	return out, nil
}

// Stats reports what a refresh did.
type Stats struct {
	// Affected is the number of origins re-indexed.
	Affected int
	// HubsRebuilt is the number of hub proximity vectors recomputed —
	// every hub for a full Refresh, only the affected ones for
	// RefreshPartial.
	HubsRebuilt int
	// Elapsed is total wall-clock time.
	Elapsed time.Duration
}

// RefreshSnapshot is the snapshot-isolated variant of Refresh: instead of
// committing refreshed origins into idx, it clones the index (an O(n)
// pointer copy — see lbindex.Index.Clone), refreshes the clone against the
// edited graph and returns it, leaving idx untouched. Readers keep serving
// from the old (graph, index) pair for the whole maintenance pass; the
// caller publishes the returned index (paired with g2) atomically when it
// is complete. The serving daemon (internal/serve) builds its epoch-swap
// layer on exactly this call (with RefreshPartial underneath).
func RefreshSnapshot[G graph.View](g2 G, idx *lbindex.Index, affected []graph.NodeID) (*lbindex.Index, Stats, error) {
	if g2.N() != idx.N() {
		return nil, Stats{}, fmt.Errorf("evolve: index built for %d nodes, edited graph has %d (rebuild instead)", idx.N(), g2.N())
	}
	next := idx.Clone()
	stats, err := Refresh(g2, next, affected)
	if err != nil {
		return nil, Stats{}, err
	}
	return next, stats, nil
}

// Refresh brings an index up to date with an edited graph: it recomputes
// EVERY hub proximity vector on the new graph and re-runs the indexing BCA
// for every affected origin, committing results in place. Unaffected
// origins keep their states — exactly stale by less than the refresh
// threshold used to compute `affected`. RefreshPartial is the cheaper
// variant that also restricts the hub recomputation to affected hubs.
//
// Hub IDENTITY is preserved: existing per-node states park ink at the
// current hubs, so swapping hub membership would orphan that ink. Any node
// set is a valid hub set (hubs are merely nodes with exact precomputed
// vectors), so keeping the old set is sound; re-optimizing the selection
// for a drifted degree distribution requires a full rebuild.
//
// The index must have been built for a graph with the same node count, and
// Refresh is its one writer (lbindex.Index): nothing may read it meanwhile.
// To refresh an index that is being served, use RefreshSnapshot.
func Refresh[G graph.View](g2 G, idx *lbindex.Index, affected []graph.NodeID) (Stats, error) {
	return RefreshPartial(g2, idx, affected, idx.HubMatrix().Hubs())
}

// RefreshPartial is Refresh restricted to a known blast radius on the hub
// side as well: only the proximity vectors of affectedHubs are recomputed
// (and only their exact top-K columns re-committed); every other hub's
// rounded column is reused bit for bit (see hub.Rebuild for why that is
// sound). affectedHubs must be hub nodes; affected origins that are hubs
// are skipped as before.
//
// Unlike Refresh, the graph may have GROWN relative to the index: pass an
// index pre-sized with lbindex.CloneGrown and list every new node in
// `affected` so its fresh BCA state is committed here.
func RefreshPartial[G graph.View](g2 G, idx *lbindex.Index, affected, affectedHubs []graph.NodeID) (Stats, error) {
	start := time.Now()
	if g2.N() != idx.N() {
		return Stats{}, fmt.Errorf("evolve: index built for %d nodes, edited graph has %d (grow the clone first)", idx.N(), g2.N())
	}
	opts := idx.Options()
	hm, err := hub.Rebuild(g2, idx.HubMatrix(), affectedHubs, hub.BuildOptions{
		Omega:   opts.Omega,
		RWR:     opts.RWR,
		TopK:    opts.K,
		Workers: opts.Workers,
	})
	if err != nil {
		return Stats{}, err
	}
	if err := idx.SetHubMatrix(hm); err != nil {
		return Stats{}, err
	}
	// Only recomputed hub vectors can change their exact top-K column.
	for _, h := range affectedHubs {
		idx.CommitHub(h, hm.ExactTopK(h))
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan graph.NodeID)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := bca.NewWorkspace(g2.N())
			for u := range jobs {
				if hm.IsHub(u) {
					continue // hub columns were refreshed above
				}
				if !idx.Owns(u) {
					// Shard slices refresh only the rows they own; the
					// same batch reaches every shard, and each re-indexes
					// its own partition (hubs, replicated, refresh
					// everywhere via affectedHubs above).
					continue
				}
				st, err := bca.Run(g2, u, hm, opts.BCA, ws)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("evolve: origin %d: %w", u, err)
					}
					mu.Unlock()
					continue
				}
				idx.Commit(u, st, bca.TopK(st, hm, ws, opts.K))
			}
		}()
	}
	for _, u := range affected {
		jobs <- u
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return Stats{}, firstErr
	}
	return Stats{
		Affected:    len(affected),
		HubsRebuilt: len(affectedHubs),
		Elapsed:     time.Since(start),
	}, nil
}
