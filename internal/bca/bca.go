// Package bca implements the Bookmark Coloring Algorithm family used to
// build the paper's lower-bound index: Berkhin's classic max-residual BCA
// [7], the threshold push of Andersen et al. [2], and — the variant the
// paper actually uses (§4.1.2) — batch propagation, which pushes ink from
// every node holding at least η residue in one iteration (Eq. 8, 9) while
// accumulating hub-bound ink separately (Eq. 6) for batch distribution via
// precomputed hub proximity vectors (Eq. 7).
//
// All variants maintain the ink-conservation invariant
// ‖w‖₁ + ‖s‖₁ + ‖r‖₁ = 1 and produce iterates p^t that are entrywise
// non-decreasing lower bounds of the true proximity vector (Propositions 1
// and 2), which is the property the reverse top-k index relies on.
package bca

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// HubProximities is what the BCA engine needs to know about hubs. The hub
// package provides the production implementation (a rounded hub proximity
// matrix); NoHubs runs BCA hub-free.
type HubProximities interface {
	// IsHub reports whether v is a hub node.
	IsHub(v graph.NodeID) bool
	// ScatterHub adds scale·p_h into dst, where p_h is the (possibly
	// rounded) precomputed proximity vector of hub h.
	ScatterHub(dst []float64, h graph.NodeID, scale float64)
	// NumHubs returns the number of hubs.
	NumHubs() int
}

// NoHubs is a HubProximities with an empty hub set.
var NoHubs HubProximities = noHubs{}

type noHubs struct{}

func (noHubs) IsHub(graph.NodeID) bool                     { return false }
func (noHubs) ScatterHub([]float64, graph.NodeID, float64) { panic("bca: no hubs") }
func (noHubs) NumHubs() int                                { return 0 }

// Config holds the BCA parameters of Algorithm 1.
type Config struct {
	// Alpha is the restart probability (ink retention fraction).
	Alpha float64
	// Eta is the propagation threshold η: only nodes holding at least η
	// residue ink propagate in a batch iteration (paper default 1e-4).
	Eta float64
	// Delta is the residue threshold δ: iteration stops once ‖r‖₁ ≤ δ
	// (paper default 0.1 for indexing).
	Delta float64
	// MaxIters caps the number of iterations as a safety net.
	MaxIters int
}

// DefaultConfig returns the indexing parameters of §5.2: α=0.15, η=1e-4,
// δ=0.1.
func DefaultConfig() Config {
	return Config{Alpha: 0.15, Eta: 1e-4, Delta: 0.1, MaxIters: 10000}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("bca: alpha must be in (0,1), got %g", c.Alpha)
	}
	if c.Eta <= 0 {
		return fmt.Errorf("bca: eta must be positive, got %g", c.Eta)
	}
	if c.Delta < 0 {
		return fmt.Errorf("bca: delta must be non-negative, got %g", c.Delta)
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("bca: max iterations must be positive, got %d", c.MaxIters)
	}
	return nil
}

// State is the resumable ink distribution of a partially executed BCA run
// from one origin node: exactly the (r^t_u, w^t_u, s^t_u) triple the index
// stores per node (matrices R, W, S of §4.1.2), in sparse form.
//
// A stored state may be folded: the index keeps only its R entries at or
// above η, the ones a Step can push, and RNorm keeps the whole residue ‖r‖₁ —
// the dropped entries' mass included. No step moves folded mass; it stays
// residue, which the upper bound pours in full. A state with no R entry left
// also drops W and is a summary (Summarized): R and W empty, RNorm > 0, and
// only what queries read of it kept — ‖r‖₁, S (for the rounding slack) and
// T. Its p̂ column was taken from the full state before R and W were dropped.
// A state straight out of Run or Start is whole: its RNorm is ‖R‖₁. The index
// stores the vectors' values as float32 rounded toward zero, adding what that
// takes off W and S to RNorm (lbindex.Index.summarize); the states it hands
// out are widened back to float64.
type State struct {
	// Origin is the node the unit of ink was injected at.
	Origin graph.NodeID
	// T is the number of batch iterations executed so far.
	T int
	// RNorm is ‖r‖₁, the total undistributed residue ink: ‖R‖₁ plus the
	// mass of the entries folded out of R.
	RNorm float64
	// R holds residue ink awaiting propagation (non-hub nodes only).
	R vecmath.Sparse
	// W holds ink retained at non-hub nodes (never redistributed).
	W vecmath.Sparse
	// S holds ink accumulated at hub nodes, to be distributed in batch
	// through the hub proximity vectors at evaluation time (Eq. 7).
	S vecmath.Sparse
}

// Clone returns a deep copy of the state.
func (st *State) Clone() *State {
	return &State{Origin: st.Origin, T: st.T, RNorm: st.RNorm,
		R: st.R.Clone(), W: st.W.Clone(), S: st.S.Clone()}
}

// Summarized reports whether st is a summary (see State): no R and no W
// stored, and RNorm > 0 the residue it held. A folded state that has stepped
// may be left with no R — every push landed on a hub — but it holds W.
func (st *State) Summarized() bool {
	return st.R.NNZ() == 0 && st.W.NNZ() == 0 && st.RNorm > 0
}

// CheckInvariant verifies ink conservation: ‖w‖₁ + ‖s‖₁ + ‖r‖₁ must equal
// the injected unit of ink (within tol), and the stored R may hold no more
// than ‖r‖₁, the rest of it folded. A summary keeps no w, so it is held to
// what it does keep: 0 < RNorm ≤ 1 and RNorm + ‖s‖₁ ≤ 1 (within tol). A
// drained state (RNorm = 0) may fall short of the unit by what storing its W
// as float32 rounded toward zero took off, at most 2⁻²³·‖w‖₁: that mass is not
// folded into ‖r‖₁, which would make the exact state inexact (see
// lbindex.Index.summarize).
func (st *State) CheckInvariant(tol float64) error {
	return CheckInk(st.RNorm, st.R.L1(), st.W.L1(), st.S.L1(), st.Summarized(), tol)
}

// CheckInk is CheckInvariant on a state's norms: ‖r‖₁, the L1 norms of the
// R, W and S it stores, and whether it is a summary. The index checks its
// stored states, whose values are float32, through it.
func CheckInk(rnorm, r, w, s float64, summarized bool, tol float64) error {
	if summarized {
		if rnorm > 1 {
			return fmt.Errorf("bca: summarized state has residue %g > 1", rnorm)
		}
		if total := rnorm + s; total > 1+tol {
			return fmt.Errorf("bca: summarized state holds r+s = %g > 1", total)
		}
		return nil
	}
	total := rnorm + w + s
	short := tol
	if rnorm == 0 {
		short += 0x1p-23 * w
	}
	if d := total - 1; d > tol || d < -short {
		return fmt.Errorf("bca: ink not conserved: w+s+r = %g", total)
	}
	if r > rnorm+tol {
		return fmt.Errorf("bca: stored ‖R‖₁ %g exceeds the residue ‖r‖₁ %g", r, rnorm)
	}
	return nil
}

// BatchInk returns Σ{r(v) : r(v) ≥ η}, the residue ink the next Step at
// threshold η would move — the same predicate Step selects its batch with.
// Zero means Step would be a no-op; a summary's is zero, its R not being
// stored. Folding leaves it bit for bit the same, since it drops only entries
// below η. The sum runs over R in stored (ascending node) order, one fixed
// order per state, so its bits — and every decision core.Engine takes from
// it — are the same in any sweep, shard or worker.
func (st *State) BatchInk(eta float64) float64 {
	var ink float64
	for _, v := range st.R.Val {
		if v >= eta {
			ink += v
		}
	}
	return ink
}

// Workspace holds dense scratch arrays reused across BCA runs so that
// building the index for millions of nodes performs no per-node
// allocations proportional to n. A Workspace serves one goroutine.
type Workspace struct {
	n int
	r scratch
	w scratch
	s scratch
	// pt is dense scratch for materializing p^t via Eq. 7.
	pt []float64
	// batch buffers the node/amount pairs selected in one iteration.
	batchIdx []int32
	batchAmt []float64
}

// NewWorkspace creates a workspace for graphs with n nodes.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		n:  n,
		r:  newScratch(n),
		w:  newScratch(n),
		s:  newScratch(n),
		pt: make([]float64, n),
	}
}

// scratch is a dense vector with a touched-entry list so it can be reset in
// O(touched) rather than O(n).
type scratch struct {
	vals    []float64
	mark    []bool
	touched []int32
}

func newScratch(n int) scratch {
	return scratch{vals: make([]float64, n), mark: make([]bool, n)}
}

func (s *scratch) add(i int32, v float64) {
	if !s.mark[i] {
		s.mark[i] = true
		s.touched = append(s.touched, i)
	}
	s.vals[i] += v
}

func (s *scratch) reset() {
	for _, i := range s.touched {
		s.vals[i] = 0
		s.mark[i] = false
	}
	s.touched = s.touched[:0]
}

// load scatters a sparse vector into the scratch (which must be clean).
func (s *scratch) load(sp vecmath.Sparse) {
	for i, idx := range sp.Idx {
		s.add(idx, sp.Val[i])
	}
}

// gather extracts the positive entries into a sorted Sparse.
func (s *scratch) gather() vecmath.Sparse {
	idxs := make([]int32, len(s.touched))
	copy(idxs, s.touched)
	slices.Sort(idxs)
	return vecmath.GatherSparseIndices(s.vals, idxs, 0)
}

func (s *scratch) l1() float64 {
	var sum float64
	for _, i := range s.touched {
		sum += s.vals[i]
	}
	return sum
}

// Start initializes a fresh BCA run from origin u: a unit of ink is
// injected as residue at u (r = e_u, w = s = 0, t = 0). If u is a hub the
// ink goes directly to s, since hubs never propagate.
func Start(u graph.NodeID, hubs HubProximities) *State {
	st := &State{Origin: u, T: 0}
	if hubs.IsHub(u) {
		st.S = vecmath.Sparse{Idx: []int32{int32(u)}, Val: []float64{1}}
		st.RNorm = 0
	} else {
		st.R = vecmath.Sparse{Idx: []int32{int32(u)}, Val: []float64{1}}
		st.RNorm = 1
	}
	return st
}

// Step executes one batch iteration of the paper's adapted BCA (Eq. 6, 8,
// 9) on the state, in place. It returns the number of nodes that
// propagated; zero means no node holds ≥ η residue and the run cannot make
// further progress at this η.
//
// Unlike the rwr matvec kernels, Step and Run carry no devirtualized
// per-view fast paths: a query's cost is dominated by the PMPN matvec and
// the dense scratch bookkeeping here, and the full-query benchmark
// (BenchmarkIntraQueryWorkers) shows no measurable difference between the
// pre-View concrete loops and the generic ones.
//
// Ink pushed toward a hub node is credited to s immediately (it would
// otherwise sit in r only to be moved to s by Eq. 6 on the next iteration;
// folding the move in keeps ‖r‖₁ meaningful as "ink still needing work").
//
// The mass folded out of R (State) is carried over: ‖r′‖₁ = ‖R′‖₁ +
// (‖r‖₁ − ‖R‖₁). A whole state's difference is exactly zero, its RNorm being
// ‖R‖₁ as computed here, so it steps bit for bit as if nothing were folded.
func Step[G graph.View](g G, st *State, hubs HubProximities, cfg Config, ws *Workspace) int {
	if ws.n != g.N() {
		panic(fmt.Sprintf("bca: workspace sized for %d nodes, graph has %d", ws.n, g.N()))
	}
	if st.Summarized() {
		panic(fmt.Sprintf("bca: Step on node %d's summarized state, whose R and W are not stored", st.Origin))
	}
	folded := st.RNorm - st.R.L1()
	ws.r.reset()
	ws.r.load(st.R)
	ws.batchIdx = ws.batchIdx[:0]
	ws.batchAmt = ws.batchAmt[:0]
	for _, i := range ws.r.touched {
		if v := ws.r.vals[i]; v >= cfg.Eta {
			ws.batchIdx = append(ws.batchIdx, i)
			ws.batchAmt = append(ws.batchAmt, v)
		}
	}
	if len(ws.batchIdx) == 0 {
		return 0
	}
	ws.w.reset()
	ws.s.reset()
	ws.w.load(st.W)
	ws.s.load(st.S)

	// Zero the selected residues first (Eq. 9 second term), then push
	// (first term): pushes landing on batch members belong to the next
	// iteration's residue.
	for _, i := range ws.batchIdx {
		ws.r.vals[i] = 0
	}
	alpha := cfg.Alpha
	for b, i := range ws.batchIdx {
		amt := ws.batchAmt[b]
		u := graph.NodeID(i)
		ws.w.add(i, alpha*amt) // Eq. 8: retain α portion
		spread := (1 - alpha) * amt
		nbrs := g.OutNeighbors(u)
		wts := g.OutWeightsOf(u)
		if wts == nil {
			share := spread / float64(len(nbrs))
			for _, v := range nbrs {
				if hubs.IsHub(v) {
					ws.s.add(int32(v), share) // Eq. 6 folded in
				} else {
					ws.r.add(int32(v), share)
				}
			}
		} else {
			inv := spread / g.TotalOutWeight(u)
			for k, v := range nbrs {
				dv := inv * wts[k]
				if hubs.IsHub(v) {
					ws.s.add(int32(v), dv)
				} else {
					ws.r.add(int32(v), dv)
				}
			}
		}
	}

	st.T++
	st.R = ws.r.gather()
	st.W = ws.w.gather()
	st.S = ws.s.gather()
	st.RNorm = st.R.L1() + folded
	return len(ws.batchIdx)
}

// Run executes Algorithm 1's inner loop for one origin node: batch
// iterations until ‖r‖₁ ≤ δ, no node reaches η, or MaxIters is hit. The
// returned state is resumable (queries refine it further with Step).
//
// Unlike repeated Step calls — which serialize the state to sparse form
// after every iteration so that queries can persist it — Run keeps the ink
// dense in the workspace across all iterations and gathers once at the
// end. This is what makes batch propagation pay off (§4.1.2): the
// per-iteration cost is one scan of the touched region, with no sorting
// or allocation.
func Run[G graph.View](g G, u graph.NodeID, hubs HubProximities, cfg Config, ws *Workspace) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(u) < 0 || int(u) >= g.N() {
		return nil, fmt.Errorf("bca: node %d out of range [0,%d)", u, g.N())
	}
	if ws.n != g.N() {
		panic(fmt.Sprintf("bca: workspace sized for %d nodes, graph has %d", ws.n, g.N()))
	}
	st := Start(u, hubs)
	if st.RNorm == 0 { // origin is a hub
		return st, nil
	}
	ws.r.reset()
	ws.w.reset()
	ws.s.reset()
	ws.r.load(st.R)
	rnorm := st.RNorm
	alpha := cfg.Alpha

	for rnorm > cfg.Delta && st.T < cfg.MaxIters {
		// Select the batch L^t = {v : r(v) ≥ η} by scanning the touched
		// region, snapshotting amounts so pushes into batch members
		// count toward the next iteration (Eq. 9 semantics).
		ws.batchIdx = ws.batchIdx[:0]
		ws.batchAmt = ws.batchAmt[:0]
		for _, i := range ws.r.touched {
			if v := ws.r.vals[i]; v >= cfg.Eta {
				ws.batchIdx = append(ws.batchIdx, i)
				ws.batchAmt = append(ws.batchAmt, v)
			}
		}
		if len(ws.batchIdx) == 0 {
			break
		}
		for _, i := range ws.batchIdx {
			ws.r.vals[i] = 0
		}
		for b, i := range ws.batchIdx {
			amt := ws.batchAmt[b]
			rnorm -= amt
			node := graph.NodeID(i)
			ws.w.add(i, alpha*amt)
			spread := (1 - alpha) * amt
			nbrs := g.OutNeighbors(node)
			wts := g.OutWeightsOf(node)
			if wts == nil {
				share := spread / float64(len(nbrs))
				for _, v := range nbrs {
					if hubs.IsHub(v) {
						ws.s.add(int32(v), share)
					} else {
						ws.r.add(int32(v), share)
						rnorm += share
					}
				}
			} else {
				inv := spread / g.TotalOutWeight(node)
				for k, v := range nbrs {
					dv := inv * wts[k]
					if hubs.IsHub(v) {
						ws.s.add(int32(v), dv)
					} else {
						ws.r.add(int32(v), dv)
						rnorm += dv
					}
				}
			}
		}
		st.T++
	}

	st.R = ws.r.gather()
	st.W = ws.w.gather()
	st.S = ws.s.gather()
	st.RNorm = st.R.L1()
	return st, nil
}

// MaterializePt computes the dense lower-bound approximation p^t of Eq. 7:
// p^t = w + P_H·s, i.e. retained non-hub ink plus hub-accumulated ink
// distributed through the (rounded) hub proximity vectors. The returned
// slice aliases workspace scratch and is valid until the next workspace
// use. It panics on a summary, whose w is not stored: p^t would silently lose
// that mass from both bounds (and so would TopK, which calls it).
func MaterializePt(st *State, hubs HubProximities, ws *Workspace) []float64 {
	if st.Summarized() {
		panic(fmt.Sprintf("bca: p^t of node %d's summarized state, whose W is not stored", st.Origin))
	}
	vecmath.Zero(ws.pt)
	st.W.CopyInto(ws.pt)
	for i, h := range st.S.Idx {
		hubs.ScatterHub(ws.pt, graph.NodeID(h), st.S.Val[i])
	}
	return ws.pt
}

// TopK materializes p^t and returns its K largest values descending — one
// column p̂^t_u(1:K) of the index's lower-bound matrix.
func TopK(st *State, hubs HubProximities, ws *Workspace, k int) []float64 {
	return vecmath.TopKValues(MaterializePt(st, hubs, ws), k)
}
