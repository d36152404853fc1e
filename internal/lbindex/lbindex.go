// Package lbindex implements the paper's offline graph index (§4.1,
// Algorithm 1 "Lower Bound Indexing"): for every node a descending list of
// the K largest lower-bound proximities p̂^t_u(1:K) obtained by partially
// executing the batch-propagation BCA, together with the resumable residue
// state (the R, W, S matrices) and the rounded hub proximity matrix P_H. A
// state keeps only the residue entries at or above η, the ones a refinement
// step can push; ‖r‖₁ keeps the whole residue. A state left with none is
// stored summarized: ‖r‖₁, S and T without R and W. The values of R, W, S and
// the hub columns are stored as float32 rounded toward zero, the mass that
// takes off folded into ‖r‖₁ and the hubs' dropped mass, and the states'
// indices as gap varints (Index.summarize); p̂, ‖r‖₁ and the hubs' exact top-K
// stay float64, and the hub columns' indices int32.
//
// The index is dynamically refinable: the online query algorithm (package
// core) advances individual nodes' BCA runs and commits the refined state
// back, tightening the bounds for future queries (§4.2.3).
package lbindex

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/partition"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// Options configures index construction. The defaults mirror §5.2.
type Options struct {
	// K is the maximum supported query k (paper: 200).
	K int
	// HubBudget is the B of §4.1.1; the hub set is the union of top-B
	// in-degree and top-B out-degree nodes, so |H| ≤ 2B (0: no hubs).
	HubBudget int
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
	// states[u] is the stored BCA state of non-hub u; nil for hubs.
	states []*stored
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
	// p̂ columns and states only for the node range its shard owns — plus
	// the full hub matrix, which every shard needs to refine any of its own
	// candidates. part is the deterministic assignment, shardID this
	// slice's shard.
	part    *partition.Map
	shardID int
}

// Shard returns the slice's partition map and shard id; ok is false for a
// full (unsharded) index.
func (idx *Index) Shard() (pm *partition.Map, shard int, ok bool) {
	return idx.part, idx.shardID, idx.part != nil
}

// Rows returns the node range [lo, hi) this index materializes rows for:
// [0, n) for a full index, its shard's range for a slice — empty for a shard
// that owns nothing.
func (idx *Index) Rows() (lo, hi int) {
	if idx.part == nil {
		return 0, idx.n
	}
	return idx.part.Range(idx.shardID)
}

// Owns reports whether this index materializes node u's row.
func (idx *Index) Owns(u graph.NodeID) bool {
	lo, hi := idx.Rows()
	return lo <= int(u) && int(u) < hi
}

// ShardSlice returns the shard's view of this full index: an index over the
// same (global) node-id space sharing the hub matrix and exactly the owned
// range's p̂ columns and states. The slice is an O(n) pointer copy — rows
// are shared with the receiver under the usual immutable-once-committed
// discipline. Reading a row outside the range panics; the query engine
// iterates Rows, so shard-local queries never do.
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
	s := &Index{
		opts:    idx.opts,
		n:       idx.n,
		hubs:    idx.hubs,
		phat:    make([][]float64, idx.n),
		states:  make([]*stored, idx.n),
		part:    pm,
		shardID: shard,
	}
	lo, hi := pm.Range(shard)
	copy(s.phat[lo:hi], idx.phat[lo:hi])
	copy(s.states[lo:hi], idx.states[lo:hi])
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
	// vectors dense). It is derived from Bytes, so it counts folded states
	// at their folded size.
	UnroundedBytes int64
	// PredictedBytes is Theorem 1's estimate at β = 0.76.
	PredictedBytes int64
	// PhatBytes is the lower-bound matrix alone — Table 2's
	// "minimum possible cost" (value in parentheses).
	PhatBytes int64
	// Folded counts the R entries below η not stored (Index.summarize),
	// Summarized the states left with no R entry and so stored without W
	// too, FoldedBytes the bytes of R and W not stored, RoundedBytes the
	// bytes saved by storing every kept sparse value, hub columns included,
	// as float32, and PackedBytes the bytes saved by storing the states' R, W
	// and S indices as gap varints: Bytes + FoldedBytes + RoundedBytes +
	// PackedBytes is the paper's (P̂, R, W, S) store at a 4-byte index and an
	// 8-byte value per entry.
	Folded       int64
	Summarized   int
	FoldedBytes  int64
	RoundedBytes int64
	PackedBytes  int64
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

	hm, err := hub.Build(g, hub.SelectByDegree(g, opts.HubBudget), hub.BuildOptions{
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
		states: make([]*stored, g.N()),
	}

	// Per-goroutine scratch and counters, indexed by ForEach's worker.
	workers := vecmath.Workers(opts.Workers)
	wss := make([]*bca.Workspace, workers)
	iters, folded, dropped, values, packed := make([]int64, workers), make([]int64, workers), make([]int64, workers), make([]int64, workers), make([]int64, workers)
	summaries := make([]int, workers)
	err = vecmath.ForEach(g.N(), workers, func(w, i int) error {
		u := graph.NodeID(i)
		if hm.IsHub(u) {
			idx.phat[u] = hm.ExactTopK(u)
			return nil
		}
		if wss[w] == nil {
			wss[w] = bca.NewWorkspace(g.N())
		}
		st, err := bca.Run(g, u, hm, opts.BCA, wss[w])
		if err != nil {
			return fmt.Errorf("lbindex: node %d: %w", u, err)
		}
		iters[w] += int64(st.T)
		idx.phat[u] = bca.TopK(st, hm, wss[w], opts.K)
		s, entries, b := idx.summarize(st)
		folded[w] += int64(entries)
		dropped[w] += b
		nnz := int64(s.R.NNZ() + s.W.NNZ() + s.S.NNZ())
		values[w] += nnz
		packed[w] += 4*nnz - int64(len(s.R.Idx)+len(s.W.Idx)+len(s.S.Idx))
		if s.Summarized() {
			summaries[w]++
		}
		idx.states[u] = s
		return nil
	})
	if err != nil {
		return nil, BuildStats{}, err
	}
	var totalIters, foldedEntries, foldedBytes, packedBytes int64
	var summarized int
	float32s := int64(hm.NNZ())
	for w := range workers {
		totalIters += iters[w]
		foldedEntries += folded[w]
		summarized += summaries[w]
		foldedBytes += dropped[w]
		float32s += values[w]
		packedBytes += packed[w]
	}

	stats := BuildStats{
		HubCount:     hm.NumHubs(),
		HubElapsed:   hubElapsed,
		TotalElapsed: time.Since(start),
		TotalIters:   totalIters,
		Folded:       foldedEntries,
		Summarized:   summarized,
		FoldedBytes:  foldedBytes,
		RoundedBytes: 4 * float32s,
		PackedBytes:  packedBytes,
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
// from u's materialized lower bound: Σ_h s_u(h)·dropped(h), over u's stored
// S. Rounding keeps p̂ a valid lower bound, but a drained state (‖r‖=0) is
// only exact up to this slack, and any sound upper bound must pour it back
// onto the staircase along with the residue. Zero for hub nodes (their top-K
// columns are taken from the unrounded vectors).
func (idx *Index) RoundingSlack(u graph.NodeID) float64 {
	st := idx.states[u]
	if st == nil {
		return 0
	}
	var sum float64
	for i, h := range st.S.Ids() {
		sum += float64(st.S.Val[i]) * idx.hubs.DroppedMass(h)
	}
	return sum
}

// StateSlack computes the rounding slack of an engine-local (refined copy)
// state against this index's hub matrix, summed in stored order as
// RoundingSlack sums it.
func (idx *Index) StateSlack(st *bca.State) float64 {
	var sum float64
	for i, h := range st.S.Idx {
		sum += st.S.Val[i] * idx.hubs.DroppedMass(h)
	}
	return sum
}

// BatchInk returns the ink the next refinement step of u's stored state would
// move at threshold η (bca.State.BatchInk) and the iterations that state has
// already run; zeros for hubs. It reads the stored state in place, so the
// query engine can ask before StateSnapshot and pay no deep copy for a
// candidate it will not step. It sums the widened values in stored order, as
// bca.State.BatchInk does on the snapshot, so the two agree bit for bit.
func (idx *Index) BatchInk(u graph.NodeID, eta float64) (ink float64, t int) {
	st := idx.states[u]
	if st == nil {
		return 0, 0
	}
	for _, v := range st.R.Val {
		if x := float64(v); x >= eta {
			ink += x
		}
	}
	return ink, st.T
}

// StateSnapshot returns u's resumable BCA state, its indices decoded and its
// values widened to float64, or nil for hub nodes. The copy is the query
// engine's to refine in no-update mode.
func (idx *Index) StateSnapshot(u graph.NodeID) *bca.State {
	st := idx.states[u]
	if st == nil {
		return nil
	}
	return &bca.State{Origin: u, T: st.T, RNorm: st.RNorm, R: st.R.Widen(), W: st.W.Widen(), S: st.S.Widen()}
}

// stored is how the index keeps the BCA state of a non-hub node: the T and
// ‖r‖₁ of a bca.State, and its R, W and S with float32 values rounded toward
// zero and indices delta-packed (summarize). R holds only entries at or above
// η. A summary stores neither R nor W (Summarized).
type stored struct {
	T       int
	RNorm   float64
	R, W, S vecmath.Packed32
}

// newStored packs a state's rounded R, W and S: the one place the index
// encodes a state's indices.
func newStored(t int, rnorm float64, r, w, s vecmath.Sparse32) *stored {
	return &stored{T: t, RNorm: rnorm, R: vecmath.Pack32(r), W: vecmath.Pack32(w), S: vecmath.Pack32(s)}
}

// Summarized reports whether s is a summary, as bca.State.Summarized.
func (s *stored) Summarized() bool {
	return s.R.NNZ() == 0 && s.W.NNZ() == 0 && s.RNorm > 0
}

// Bytes returns the payload footprint: the packed sparse vectors plus T and
// ‖r‖₁.
func (s *stored) Bytes() int64 {
	return s.R.Bytes() + s.W.Bytes() + s.S.Bytes() + 16
}

// CheckInvariant holds s to bca.State.CheckInvariant's ink rules.
func (s *stored) CheckInvariant(tol float64) error {
	return bca.CheckInk(s.RNorm, s.R.L1(), s.W.L1(), s.S.L1(), s.Summarized(), tol)
}

// summarize is the index's one storage rule, applied wherever a state is
// stored: Build and Commit, and so update-mode refinements and evolve
// refreshes. It returns st's stored form, the R entries folded and the bytes
// (at float64 width) of R and W not stored; st itself is not kept.
//
// Every value is rounded toward zero to float32 (vecmath.RoundDown32), so
// W + P_H·S stays a lower bound, and what rounding takes off is residue the
// bounds pour in full. A state keeps only the R entries whose stored value is
// at or above η: a step pushes no other, and core's refinement reads of R only
// the batch ink those entries sum to (bca.State.BatchInk). The dropped entries
// and the kept ones' rounding loss stay residue, counted in ‖r‖₁, which every
// upper bound pours in full and no step moves (bca.Step carries it over). The
// losses of S and W are added to ‖r‖₁, which keeps ‖w‖₁ + ‖s‖₁ + ‖r‖₁ = 1 —
// except W's on a state left drained (‖r‖₁ = 0 even after S's loss, as the
// exact fallback commits it): no step reads its W, its exact p̂ and ρ = 0
// decide it, and folding would turn its ties back into fallbacks. A state left
// with residue but no R entry is one no query steps: core takes a step only
// when its batch ink could decide, and that ink is zero whatever the query.
// Its W is dropped too, leaving a summary (Summarized) that keeps what queries
// read: T, ‖r‖₁ and S, whose rounding slack is taken against the current hub
// matrix. p̂ is computed from st, before any of this, so it is a lower bound
// that needs no slack of its own. Last, the indices of R, W and S are
// delta-packed (vecmath.Pack32), which changes no value a query reads.
func (idx *Index) summarize(st *bca.State) (s *stored, folded int, dropped int64) {
	eta := idx.opts.BCA.Eta
	// Rounding only lowers a value, so most entries fail the first test.
	kept := func(v float64) bool { return v >= eta && float64(vecmath.RoundDown32(v)) >= eta }
	keep := 0
	for _, v := range st.R.Val {
		if kept(v) {
			keep++
		}
	}
	r32 := vecmath.Sparse32{Idx: make([]int32, 0, keep), Val: make([]float32, 0, keep)}
	for i, v := range st.R.Val {
		if kept(v) {
			r32.Idx = append(r32.Idx, st.R.Idx[i])
			r32.Val = append(r32.Val, vecmath.RoundDown32(v))
		}
	}
	folded = st.R.NNZ() - keep
	dropped = int64(folded) * 12 // a u32 index and an f64 value each
	var w32 vecmath.Sparse32
	s32, lostS := vecmath.Round32(st.S)
	rnorm := st.RNorm + lostS
	switch {
	case rnorm > 0 && r32.NNZ() == 0:
		dropped += st.W.Bytes()
	case rnorm > 0:
		var lostW float64
		w32, lostW = vecmath.Round32(st.W)
		rnorm += lostW
	default:
		w32, _ = vecmath.Round32(st.W)
	}
	return newStored(st.T, rnorm, r32, w32, s32), folded, dropped
}

// Commit stores a refined state and its recomputed p̂ column for node u
// (§4.2.3 dynamic index update). The caller passes ownership of both: the
// state is stored under the index's storage rule (summarize), which rounds
// its values to float32, may fold R entries below η into ‖r‖₁ and may drop W.
// Commit is a write: only the index's one writer calls it, before the index is
// shared (see Index). That writer may commit distinct nodes from several
// goroutines at once — an update-mode engine's sweep shards do — since each
// commit replaces only u's own row pointers.
func (idx *Index) Commit(u graph.NodeID, st *bca.State, phat []float64) {
	if len(phat) != idx.opts.K {
		panic(fmt.Sprintf("lbindex: Commit phat length %d, want %d", len(phat), idx.opts.K))
	}
	idx.states[u], _, _ = idx.summarize(st)
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
		states:  append([]*stored(nil), idx.states...),
		part:    idx.part,
		shardID: idx.shardID,
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
	states := make([]*stored, n2)
	copy(states, idx.states)
	c := &Index{
		opts:   idx.opts,
		n:      n2,
		hubs:   idx.hubs,
		phat:   phat,
		states: states,
	}
	if idx.part != nil {
		// Extend the assignment: existing nodes never migrate, and the last
		// shard's range takes the fresh ids (partition.Map.Grow) — their
		// rows, like every grown row, must be committed before the clone
		// serves queries.
		pm2, err := idx.part.Grow(n2)
		if err != nil {
			panic(fmt.Sprintf("lbindex: CloneGrown: %v", err))
		}
		c.part, c.shardID = pm2, idx.shardID
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
