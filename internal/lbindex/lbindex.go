// Package lbindex implements the paper's offline graph index (§4.1,
// Algorithm 1 "Lower Bound Indexing"): for every node a descending list of
// the K largest lower-bound proximities p̂^t_u(1:K) obtained by partially
// executing the batch-propagation BCA, together with the resumable residue
// state (the R, W, S matrices) and the rounded hub proximity matrix P_H. A
// state whose residue sits wholly below η, which no refinement step can move,
// is stored summarized: ‖r‖₁, S and T without R and W (Index.summarize).
//
// The index is dynamically refinable: the online query algorithm (package
// core) advances individual nodes' BCA runs and commits the refined state
// back, tightening the bounds for future queries (§4.2.3).
package lbindex

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/partition"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// HubSelection names the hub selection scheme used at build time.
type HubSelection int

const (
	// HubsByDegree is the paper's scheme (§4.1.1): the union of top-B
	// in-degree and top-B out-degree nodes.
	HubsByDegree HubSelection = iota
	// HubsGreedy is Berkhin's BCA-driven scheme [7]; kept as an ablation.
	HubsGreedy
	// HubsNone builds the index without hubs (pure BCA); slow to converge
	// on hub-heavy graphs but useful as a baseline.
	HubsNone
)

// String returns the scheme name.
func (h HubSelection) String() string {
	switch h {
	case HubsByDegree:
		return "degree"
	case HubsGreedy:
		return "greedy"
	case HubsNone:
		return "none"
	default:
		return fmt.Sprintf("HubSelection(%d)", int(h))
	}
}

// Options configures index construction. The defaults mirror §5.2.
type Options struct {
	// K is the maximum supported query k (paper: 200).
	K int
	// HubBudget is the B of §4.1.1; the hub set is the union of top-B
	// in-degree and top-B out-degree nodes, so |H| ≤ 2B.
	HubBudget int
	// HubScheme selects the hub selection algorithm.
	HubScheme HubSelection
	// GreedySeed seeds the greedy selector (HubsGreedy only).
	GreedySeed int64
	// Omega is the hub-vector rounding threshold ω of §4.1.3.
	Omega float64
	// BCA carries α, η, δ for the per-node partial BCA runs.
	BCA bca.Config
	// RWR carries the power-method parameters for exact hub vectors;
	// Alpha must equal BCA.Alpha.
	RWR rwr.Params
	// Workers bounds build parallelism; ≤0 selects GOMAXPROCS.
	Workers int
}

// DefaultOptions returns the paper's indexing parameters (§5.2): K=200,
// η=1e-4, δ=0.1, ω=1e-6, α=0.15, ε=1e-10.
func DefaultOptions() Options {
	return Options{
		K:         200,
		HubBudget: 50,
		HubScheme: HubsByDegree,
		Omega:     1e-6,
		BCA:       bca.DefaultConfig(),
		RWR:       rwr.DefaultParams(),
	}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("lbindex: K must be positive, got %d", o.K)
	}
	if o.HubBudget < 0 {
		return fmt.Errorf("lbindex: hub budget must be non-negative, got %d", o.HubBudget)
	}
	if o.Omega < 0 {
		return fmt.Errorf("lbindex: omega must be non-negative, got %g", o.Omega)
	}
	if err := o.BCA.Validate(); err != nil {
		return err
	}
	if err := o.RWR.Validate(); err != nil {
		return err
	}
	if o.BCA.Alpha != o.RWR.Alpha {
		return fmt.Errorf("lbindex: BCA alpha %g != RWR alpha %g", o.BCA.Alpha, o.RWR.Alpha)
	}
	return nil
}

// Index is the paper's graph index I = (P̂, R, W, S, P_H).
//
// An index has at most one writer, nothing reads it while it is being
// written, and once it is shared it is immutable. The writers are Build and
// the loaders, an update-mode core.Engine (which owns its index; its sweep
// shards commit distinct rows), and maintenance (evolve), which refreshes a
// Clone before anyone reads it. A shared index — a core.View's, a published
// snapshot, a checkpoint being saved — is only read, so no accessor locks.
// The exceptions are the two atomic counters: refinements, which one writer's
// sweep shards bump concurrently, and the journal watermark, which the serving
// daemon stamps on its published index.
type Index struct {
	opts Options
	n    int
	// hubs is the rounded hub proximity matrix (swapped by SetHubMatrix);
	// the Matrix itself is immutable once built.
	hubs *hub.Matrix
	// phat[u] is p̂^t_u(1:K): the K largest lower-bound proximities from
	// u, descending. For hub nodes these are exact top-K values.
	phat [][]float64
	// states[u] is the resumable BCA state of non-hub u; nil for hubs.
	states []*bca.State
	// refinements counts committed post-build refinement steps (a
	// diagnostic for the Fig. 7 experiment).
	refinements atomic.Int64
	// watermark is the edit-journal watermark this index's state reflects:
	// every journaled batch with watermark ≤ this value has been applied
	// (or deterministically rejected). Persisted in the v2 image, it is
	// what crash recovery replays the journal suffix against. 0 for a
	// freshly built index.
	watermark atomic.Uint64
	// backing is the mmap'd image this index's rows alias, or nil for
	// heap-resident indexes. Mapped rows are read-only; every writer
	// replaces per-node pointers wholesale (the same immutable-once-
	// committed discipline Clone relies on), so refinement, evolve
	// refreshes and hub rebuilds work unchanged over a mapping.
	backing *Mapping

	// Shard-slice fields (nil/zero for a full index). A slice covers the
	// SAME node-id space as the full index (n is global) but materializes
	// p̂ columns and states only for the nodes its shard owns — plus the
	// full hub matrix, which every shard needs to refine any of its own
	// candidates. part is the deterministic assignment, shardID this
	// slice's shard, and owned the ascending materialized owned-node list.
	part    *partition.Map
	shardID int
	owned   []graph.NodeID

	// perm is the build-time cache-aware relabeling this index's graph is
	// stored under (perm[external] = internal), nil for identity; permInv is
	// its inverse. Both are immutable once set (SetRelabeling copies), so
	// clones and shard slices share them. Nodes added after build (id ≥
	// len(perm)) keep identity labels. Persisted as a checksummed v2 section.
	perm    graph.Permutation
	permInv graph.Permutation
}

// Shard returns the slice's partition map and shard id; ok is false for a
// full (unsharded) index.
func (idx *Index) Shard() (pm *partition.Map, shard int, ok bool) {
	return idx.part, idx.shardID, idx.part != nil
}

// OwnedNodes returns the ascending list of nodes a shard slice materializes
// rows for; nil for a full index, which materializes every node — and for the
// slice of a shard that owns nothing, so tell the two apart with Shard, never
// by this list. The slice aliases internal storage and must not be modified.
func (idx *Index) OwnedNodes() []graph.NodeID {
	return idx.owned
}

// Owns reports whether this index materializes node u's row. Always true
// for a full index.
func (idx *Index) Owns(u graph.NodeID) bool {
	return idx.part == nil || idx.part.Owner(u) == idx.shardID
}

// ShardSlice returns the shard's view of this full index: an index over the
// same (global) node-id space sharing the hub matrix and exactly the owned
// nodes' p̂ columns and states. The slice is an O(owned) pointer copy — rows
// are shared with the receiver under the usual immutable-once-committed
// discipline. Reading a non-owned row panics; the query engine iterates
// OwnedNodes, so shard-local queries never do.
func (idx *Index) ShardSlice(pm *partition.Map, shard int) (*Index, error) {
	if idx.part != nil {
		return nil, fmt.Errorf("lbindex: cannot re-slice a shard slice (shard %d)", idx.shardID)
	}
	if pm.N() != idx.n {
		return nil, fmt.Errorf("lbindex: partition covers %d nodes, index has %d", pm.N(), idx.n)
	}
	if shard < 0 || shard >= pm.P() {
		return nil, fmt.Errorf("lbindex: shard %d outside [0,%d)", shard, pm.P())
	}
	owned := pm.Owned(shard)
	s := &Index{
		opts:    idx.opts,
		n:       idx.n,
		hubs:    idx.hubs,
		phat:    make([][]float64, idx.n),
		states:  make([]*bca.State, idx.n),
		part:    pm,
		shardID: shard,
		owned:   owned,
		perm:    idx.perm,
		permInv: idx.permInv,
	}
	for _, u := range owned {
		s.phat[u] = idx.phat[u]
		s.states[u] = idx.states[u]
	}
	s.setBacking(idx.backing)
	s.refinements.Store(idx.refinements.Load())
	s.watermark.Store(idx.watermark.Load())
	return s, nil
}

// BuildStats reports construction cost, mirroring Table 2's columns.
type BuildStats struct {
	HubCount     int
	HubElapsed   time.Duration
	TotalElapsed time.Duration
	// TotalIters sums BCA iterations over all non-hub nodes.
	TotalIters int64
	// Bytes is the serialized-payload size estimate of the built index.
	Bytes int64
	// UnroundedBytes estimates the size without §4.1.3 rounding (hub
	// vectors dense). It is derived from Bytes, so it counts summarized
	// states at their summarized size.
	UnroundedBytes int64
	// PredictedBytes is Theorem 1's estimate at β = 0.76.
	PredictedBytes int64
	// PhatBytes is the lower-bound matrix alone — Table 2's
	// "minimum possible cost" (value in parentheses).
	PhatBytes int64
	// Summarized counts the states stored summarized (Index.summarize), and
	// SummarizedBytes the bytes of R and W they no longer cost.
	Summarized      int
	SummarizedBytes int64
}

// Build runs Algorithm 1: select hubs, compute their exact proximity
// vectors, then run partial batch-BCA from every non-hub node, keeping the
// top-K lower bounds and the resumable state.
func Build[G graph.View](g G, opts Options) (*Index, BuildStats, error) {
	if err := opts.Validate(); err != nil {
		return nil, BuildStats{}, err
	}
	if g.N() == 0 {
		return nil, BuildStats{}, fmt.Errorf("lbindex: empty graph")
	}
	start := time.Now()

	var hubIDs []graph.NodeID
	switch opts.HubScheme {
	case HubsByDegree:
		hubIDs = hub.SelectByDegree(g, opts.HubBudget)
	case HubsGreedy:
		var err error
		hubIDs, err = hub.SelectGreedy(g, 2*opts.HubBudget, opts.BCA, opts.GreedySeed)
		if err != nil {
			return nil, BuildStats{}, err
		}
	case HubsNone:
		hubIDs = nil
	default:
		return nil, BuildStats{}, fmt.Errorf("lbindex: unknown hub scheme %v", opts.HubScheme)
	}

	var hm *hub.Matrix
	var err error
	hm, err = hub.Build(g, hubIDs, hub.BuildOptions{
		Omega:   opts.Omega,
		RWR:     opts.RWR,
		TopK:    opts.K,
		Workers: opts.Workers,
	})
	if err != nil {
		return nil, BuildStats{}, err
	}
	hubElapsed := time.Since(start)

	idx := &Index{
		opts:   opts,
		n:      g.N(),
		hubs:   hm,
		phat:   make([][]float64, g.N()),
		states: make([]*bca.State, g.N()),
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var totalIters, summarizedBytes int64
	var summarized int
	jobs := make(chan graph.NodeID)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := bca.NewWorkspace(g.N())
			var iters, dropped int64
			var summaries int
			for u := range jobs {
				if hm.IsHub(u) {
					idx.phat[u] = hm.ExactTopK(u)
					continue
				}
				st, err := bca.Run(g, u, hm, opts.BCA, ws)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("lbindex: node %d: %w", u, err)
					}
					mu.Unlock()
					continue
				}
				iters += int64(st.T)
				idx.phat[u] = bca.TopK(st, hm, ws, opts.K)
				if b := idx.summarize(st); b > 0 {
					summaries++
					dropped += b
				}
				idx.states[u] = st
			}
			mu.Lock()
			totalIters += iters
			summarized += summaries
			summarizedBytes += dropped
			mu.Unlock()
		}()
	}
	for u := 0; u < g.N(); u++ {
		jobs <- graph.NodeID(u)
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, BuildStats{}, firstErr
	}

	stats := BuildStats{
		HubCount:        hm.NumHubs(),
		HubElapsed:      hubElapsed,
		TotalElapsed:    time.Since(start),
		TotalIters:      totalIters,
		Summarized:      summarized,
		SummarizedBytes: summarizedBytes,
	}
	stats.PhatBytes = int64(g.N()) * int64(opts.K) * 8
	stats.Bytes = idx.SizeBytes()
	stats.UnroundedBytes = stats.Bytes - hm.Bytes() + hm.UnroundedBytes()
	stats.PredictedBytes = hub.PredictIndexBytes(g.N(), opts.K, hm.NumHubs(), opts.Omega, 0.76)
	return idx, stats, nil
}

// N returns the number of indexed nodes.
func (idx *Index) N() int { return idx.n }

// K returns the maximum supported query k.
func (idx *Index) K() int { return idx.opts.K }

// Options returns the build options.
func (idx *Index) Options() Options { return idx.opts }

// HubMatrix returns the rounded hub proximity matrix.
func (idx *Index) HubMatrix() *hub.Matrix { return idx.hubs }

// IsHub reports whether u is a hub (its index entry is exact).
func (idx *Index) IsHub(u graph.NodeID) bool { return idx.hubs.IsHub(u) }

// KthLowerBound returns p̂^t_u(k), the indexed lower bound of u's k-th
// largest proximity (1-based k ≤ K).
func (idx *Index) KthLowerBound(u graph.NodeID, k int) float64 {
	if idx.phat[u] == nil {
		panic(fmt.Sprintf("lbindex: node %d not materialized (shard %d does not own it)", u, idx.shardID))
	}
	return idx.phat[u][k-1]
}

// PHatRow returns the stored p̂ column of node u (length K, descending),
// without copying it. The row is read-only: it may alias an mmap'd image, and
// it is shared with every Clone and shard slice of this index.
func (idx *Index) PHatRow(u graph.NodeID) []float64 { return idx.phat[u] }

// ResidueNorm returns ‖r^t_u‖₁, the undistributed ink of u's partial BCA
// run; 0 for hubs (their proximities are exact).
func (idx *Index) ResidueNorm(u graph.NodeID) float64 {
	if idx.states[u] == nil {
		return 0
	}
	return idx.states[u].RNorm
}

// RoundingSlack returns the proximity mass that §4.1.3's rounding removed
// from u's materialized lower bound: Σ_h s_u(h)·dropped(h). Rounding keeps
// p̂ a valid lower bound, but a drained state (‖r‖=0) is only exact up to
// this slack, and any sound upper bound must pour it back onto the
// staircase along with the residue. Zero when ω = 0 and for hub nodes
// (their top-K columns are taken from the unrounded vectors).
func (idx *Index) RoundingSlack(u graph.NodeID) float64 {
	st := idx.states[u]
	if st == nil {
		return 0
	}
	return stateSlack(st, idx.hubs)
}

func stateSlack(st *bca.State, hm *hub.Matrix) float64 {
	var slack float64
	for i, h := range st.S.Idx {
		slack += st.S.Val[i] * hm.DroppedMass(graph.NodeID(h))
	}
	return slack
}

// StateSlack computes the rounding slack of an engine-local (refined copy)
// state against this index's hub matrix.
func (idx *Index) StateSlack(st *bca.State) float64 {
	return stateSlack(st, idx.hubs)
}

// BatchInk returns the ink the next refinement step of u's stored state would
// move at threshold η (bca.State.BatchInk) and the iterations that state has
// already run; zeros for hubs. It reads the stored state in place, so the
// query engine can ask before StateSnapshot and pay no deep copy for a
// candidate it will not step.
func (idx *Index) BatchInk(u graph.NodeID, eta float64) (ink float64, t int) {
	st := idx.states[u]
	if st == nil {
		return 0, 0
	}
	return st.BatchInk(eta), st.T
}

// StateSnapshot returns a deep copy of u's resumable BCA state, or nil for
// hub nodes. Copies are what the query engine refines in no-update mode.
func (idx *Index) StateSnapshot(u graph.NodeID) *bca.State {
	if idx.states[u] == nil {
		return nil
	}
	return idx.states[u].Clone()
}

// summarize is the index's one storage rule, applied wherever a state is
// stored: Build and Commit, and so update-mode refinements and evolve
// refreshes. A state with residue left and none of it at or above η
// (‖r‖₁ > 0, BatchInk(η) = 0) is one no query steps: core's refinement takes
// a step only when its batch ink could decide, and that ink is zero whatever
// the query. Its R and W are dropped in place, leaving a summary
// (bca.State.Summarized) that keeps what queries read: T, ‖r‖₁ and S, whose
// rounding slack is taken against the current hub matrix. Its p̂ column was
// computed from the full state. A drained state (‖r‖₁ = 0, as the exact
// fallback commits) is left whole. It returns the bytes dropped.
func (idx *Index) summarize(st *bca.State) int64 {
	if st.RNorm == 0 || st.BatchInk(idx.opts.BCA.Eta) > 0 {
		return 0
	}
	dropped := st.R.Bytes() + st.W.Bytes()
	st.R, st.W = vecmath.Sparse{}, vecmath.Sparse{}
	return dropped
}

// Commit stores a refined state and its recomputed p̂ column for node u
// (§4.2.3 dynamic index update). The caller passes ownership of both: the
// state is stored under the index's storage rule (summarize), which may drop
// its R and W. Commit is a write: only the index's one writer calls it, before
// the index is shared (see Index). That writer may commit distinct nodes from
// several goroutines at once — an update-mode engine's sweep shards do — since
// each commit replaces only u's own row pointers.
func (idx *Index) Commit(u graph.NodeID, st *bca.State, phat []float64) {
	if len(phat) != idx.opts.K {
		panic(fmt.Sprintf("lbindex: Commit phat length %d, want %d", len(phat), idx.opts.K))
	}
	idx.summarize(st)
	idx.states[u] = st
	idx.phat[u] = phat
	idx.refinements.Add(1)
}

// SetHubMatrix replaces the hub proximity matrix with one recomputed on an
// edited graph. The replacement must cover the same node count and the
// SAME hub membership: per-node states park ink at the current hubs, so a
// membership change would orphan that ink (rebuild the index to re-select
// hubs). Used by the evolve package.
func (idx *Index) SetHubMatrix(hm *hub.Matrix) error {
	n, newHubs, _, _, _, _ := hm.Parts()
	if n != idx.n {
		return fmt.Errorf("lbindex: replacement hub matrix covers %d nodes, index has %d", n, idx.n)
	}
	oldHubs := idx.hubs.Hubs()
	if len(newHubs) != len(oldHubs) {
		return fmt.Errorf("lbindex: replacement changes hub count %d → %d", len(oldHubs), len(newHubs))
	}
	for i := range newHubs {
		if newHubs[i] != oldHubs[i] {
			return fmt.Errorf("lbindex: replacement changes hub membership at position %d: %d → %d", i, oldHubs[i], newHubs[i])
		}
	}
	idx.hubs = hm
	return nil
}

// CommitHub refreshes the exact top-K column of a hub node (whose state is
// always nil). Used by the evolve package after hub vectors change.
func (idx *Index) CommitHub(u graph.NodeID, phat []float64) {
	if len(phat) != idx.opts.K {
		panic(fmt.Sprintf("lbindex: CommitHub phat length %d, want %d", len(phat), idx.opts.K))
	}
	if !idx.IsHub(u) {
		panic(fmt.Sprintf("lbindex: CommitHub on non-hub node %d", u))
	}
	idx.states[u] = nil
	idx.phat[u] = phat
}

// Clone returns an independent index sharing this index's committed rows.
// The copy is O(n) pointers, not a deep copy: p̂ columns and BCA states are
// immutable once committed — every writer (Commit, CommitHub, the refresh
// path in package evolve) replaces the per-node pointers wholesale and the
// query engine refines deep copies (StateSnapshot), never the stored
// objects — so sharing them is safe. The clone has no reader yet, so its
// caller may write it (see Index) while this index keeps serving: commits
// replace only the clone's pointers. That is what makes snapshot isolation
// cheap — a maintenance pass refreshes a clone off to the side, then
// publishes it.
func (idx *Index) Clone() *Index {
	c := &Index{
		opts:    idx.opts,
		n:       idx.n,
		hubs:    idx.hubs,
		phat:    append([][]float64(nil), idx.phat...),
		states:  append([]*bca.State(nil), idx.states...),
		part:    idx.part,
		shardID: idx.shardID,
		owned:   idx.owned,
		perm:    idx.perm,
		permInv: idx.permInv,
	}
	c.setBacking(idx.backing)
	c.refinements.Store(idx.refinements.Load())
	c.watermark.Store(idx.watermark.Load())
	return c
}

// CloneGrown returns a Clone extended to cover n2 ≥ N() nodes: the new
// origins' p̂ columns and states are unset and MUST be committed (via
// Commit, typically through an evolve refresh that lists every new node as
// affected) before the clone serves queries — reading an uncommitted new
// row panics. Node growth never changes hub membership: new nodes are
// plain origins with fresh BCA runs.
func (idx *Index) CloneGrown(n2 int) *Index {
	if n2 < idx.n {
		panic(fmt.Sprintf("lbindex: CloneGrown shrinking %d → %d nodes", idx.n, n2))
	}
	phat := make([][]float64, n2)
	copy(phat, idx.phat)
	states := make([]*bca.State, n2)
	copy(states, idx.states)
	c := &Index{
		opts:    idx.opts,
		n:       n2,
		hubs:    idx.hubs,
		phat:    phat,
		states:  states,
		perm:    idx.perm,
		permInv: idx.permInv,
	}
	if idx.part != nil {
		// Extend the assignment: existing nodes never migrate (see
		// partition.Map.Grow), and the fresh ids this shard owns join its
		// owned list — their rows, like every grown row, must be committed
		// before the clone serves queries.
		pm2, err := idx.part.Grow(n2)
		if err != nil {
			panic(fmt.Sprintf("lbindex: CloneGrown: %v", err))
		}
		c.part = pm2
		c.shardID = idx.shardID
		c.owned = idx.owned
		for u := idx.n; u < n2; u++ {
			if pm2.Owner(graph.NodeID(u)) == idx.shardID {
				if len(c.owned) == len(idx.owned) {
					c.owned = append([]graph.NodeID(nil), idx.owned...)
				}
				c.owned = append(c.owned, graph.NodeID(u))
			}
		}
	}
	c.setBacking(idx.backing)
	c.refinements.Store(idx.refinements.Load())
	c.watermark.Store(idx.watermark.Load())
	return c
}

// Refinements returns the number of committed refinement steps since build.
func (idx *Index) Refinements() int64 {
	return idx.refinements.Load()
}

// Watermark returns the edit-journal watermark embedded in this index: the
// highest journaled batch reflected in its state (0 for a fresh build).
// Crash recovery replays only journal records above it.
func (idx *Index) Watermark() uint64 { return idx.watermark.Load() }

// SetWatermark records that every journaled batch with watermark ≤ wm is
// reflected in this index's state. The serving maintenance goroutine stamps
// each published index with the batch watermark that produced it, so a
// checkpointed image always names the journal suffix recovery must replay.
func (idx *Index) SetWatermark(wm uint64) { idx.watermark.Store(wm) }

// SizeBytes returns the approximate payload footprint of the index: the
// lower-bound matrix, all resumable states, and the rounded hub matrix.
func (idx *Index) SizeBytes() int64 {
	var rows int64
	for _, col := range idx.phat {
		if col != nil {
			rows++
		}
	}
	total := rows * int64(idx.opts.K) * 8
	for _, st := range idx.states {
		if st != nil {
			total += st.Bytes()
		}
	}
	total += idx.hubs.Bytes()
	return total
}

// CheckInvariants verifies every stored state conserves ink and every p̂
// column is descending — used by tests and after deserialization.
func (idx *Index) CheckInvariants() error {
	for u := 0; u < idx.n; u++ {
		if idx.phat[u] == nil {
			// Shard slices materialize owned rows only; a missing row is an
			// invariant violation only when this index should own it.
			if idx.Owns(graph.NodeID(u)) {
				return fmt.Errorf("lbindex: owned node %d has no p̂ column", u)
			}
			continue
		}
		if !vecmath.IsSortedDescending(idx.phat[u]) {
			return fmt.Errorf("lbindex: p̂ column of node %d not descending", u)
		}
		st := idx.states[u]
		if st == nil {
			if !idx.hubs.IsHub(graph.NodeID(u)) && idx.Owns(graph.NodeID(u)) {
				return fmt.Errorf("lbindex: non-hub node %d has no state", u)
			}
			continue
		}
		if err := st.CheckInvariant(1e-6); err != nil {
			return fmt.Errorf("lbindex: node %d: %w", u, err)
		}
	}
	return nil
}
