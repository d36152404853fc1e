// Package shard distributes one reverse top-k query across P shard
// engines, each owning a partition of the node set (internal/partition)
// over a shard slice of the lower-bound index (lbindex.ShardSlice) and a
// replicated graph + hub matrix.
//
// The decomposition follows the paper's own structure: the only global
// computation in Algorithm 4 is the PMPN vector p_·(q); every subsequent
// per-candidate decision touches one node's index row. The coordinator
// therefore computes the PMPN ONCE (where a naive federation would compute
// it P times), and scatters per-round partial iterates to the shards, which
// prune or confirm their own candidates with the paper's bounds — the k-th
// lower bound p̂_u(k) on one side and the Algorithm-3 staircase upper bound
// on the other — evaluated against the iterate's rigorous error band
// (rwr.ToStepper). Between rounds the shards' bound summaries (undecided
// counts and the tightest open k-th-score lower-bound gap) are gathered and
// folded into a global bound that sizes the next round and stops the PMPN
// outright once every shard reports its candidates decided. Candidates
// still open when the PMPN converges are decided exactly against the
// converged vector (core.View.DecideList), so the merged answer is
// bit-identical to the single-engine answer — see core.Screen for the
// monotonicity argument.
//
// This file is the in-process transport: P core.Views in one address
// space. The HTTP transport — stock rtkserve daemons each loaded with one
// shard-slice file, fanned out to by a coordinator daemon — lives in
// internal/serve (Fanout).
package shard

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/partition"
	"repro/internal/rwr"
)

// Config tunes a Coordinator. The zero value selects defaults.
type Config struct {
	// Workers is the coordinator's parallelism budget: the shared PMPN
	// matvec uses all of it, and the final decide phase deals it across
	// the shard engines (≥ 1 each). 0 selects the shard count.
	Workers int
	// RoundIters is the base number of PMPN iterations between screen
	// rounds; the coordinator stretches later rounds adaptively using the
	// gathered global bound. 0 selects DefaultRoundIters.
	RoundIters int
}

// DefaultRoundIters is the base screen-round length. At α = 0.15 the error
// band τ shrinks 8 iterations ≈ 3.7× per round — coarse enough that
// screens stay a small fraction of matvec cost, fine enough that pruning
// starts long before convergence (≈ 140 iterations at ε = 1e-10).
const DefaultRoundIters = 8

// maxRoundIters caps adaptive round stretching so a misestimated gap can
// not postpone the next exchange indefinitely.
const maxRoundIters = 64

// QueryStats reports one distributed query's execution profile.
type QueryStats struct {
	Query graph.NodeID
	K     int
	// PMPNIters is the number of power iterations actually run; with
	// EarlyStop they are fewer than single-engine convergence needs.
	PMPNIters int
	// Rounds is the number of scatter-gather bound exchanges.
	Rounds int
	// EarlyStop records that every shard decided all its candidates from
	// bounds alone, so the PMPN was abandoned before convergence.
	EarlyStop bool
	// PrunedByBound / ConfirmedByBound count nodes decided during bound
	// exchange rounds (τ > 0) — the cross-shard pruning the final exact
	// pass never had to look at.
	PrunedByBound    int
	ConfirmedByBound int
	// Survivors is the number of candidates left to the exact decide pass
	// (for QueryAnytime: the size of the returned maybe set).
	Survivors int
	// EpsAchieved is QueryAnytime's final undecided fraction (0 for Query).
	EpsAchieved float64
	// Results is the answer-set size.
	Results int
	// PerShard carries the final decide pass's per-shard engine stats
	// (zero-valued when EarlyStop skipped that pass).
	PerShard []core.QueryStats
	// Elapsed is total wall clock; PMPNElapsed the share spent inside
	// power iterations.
	Elapsed     time.Duration
	PMPNElapsed time.Duration
}

// Coordinator fans reverse top-k queries out over in-process shard
// engines. Safe for concurrent use: per-query state lives on the stack and
// the shard views are themselves concurrency-safe.
type Coordinator struct {
	g      graph.View
	pm     *partition.Map
	views  []*core.View
	params rwr.Params
	maxK   int

	workers    int
	roundIters int

	// RoundObserver, when set, watches the shared PMPN iteration of every
	// query this coordinator runs: it is wired to rwr.ToStepper.RoundHook
	// and receives (iteration, L1 residual, tail error bound) after each
	// power iteration. Observational only; it runs on the query
	// goroutine, so set it before serving and keep it cheap.
	RoundObserver func(iter int, residual, tail float64)
}

// NewInProc builds a coordinator over one shard slice per shard, in shard
// order. Every slice must carry the same partition map (slice i owning
// shard i) and be built over the given graph's node space.
func NewInProc(g graph.View, slices []*lbindex.Index, cfg Config) (*Coordinator, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("shard: no shard slices given")
	}
	var pm *partition.Map
	views := make([]*core.View, len(slices))
	for i, idx := range slices {
		ipm, shardID, ok := idx.Shard()
		if !ok {
			if len(slices) == 1 {
				// A single full index is a valid 1-shard deployment; give
				// it the trivial partition.
				var err error
				ipm, err = partition.NewRange(idx.N(), 1)
				if err != nil {
					return nil, err
				}
				var serr error
				idx, serr = idx.ShardSlice(ipm, 0)
				if serr != nil {
					return nil, serr
				}
			} else {
				return nil, fmt.Errorf("shard: index %d is not a shard slice", i)
			}
		}
		if shardID != i {
			return nil, fmt.Errorf("shard: slice at position %d is shard %d (order slices by shard id)", i, shardID)
		}
		if pm == nil {
			pm = ipm
			if pm.P() != len(slices) {
				return nil, fmt.Errorf("shard: partition has %d shards, %d slices given", pm.P(), len(slices))
			}
		} else if !pm.Equal(ipm) {
			return nil, fmt.Errorf("shard: slice %d carries a different partition map", i)
		}
		v, err := core.NewView(g, idx)
		if err != nil {
			return nil, fmt.Errorf("shard: slice %d: %w", i, err)
		}
		views[i] = v
	}
	// Every slice must agree on the cache-aware relabeling (all descend
	// from one full index): the coordinator translates at its own query
	// boundary, so a slice speaking a different internal space would
	// silently decide the wrong rows.
	base := views[0].Index().Relabeling()
	for i := 1; i < len(views); i++ {
		other := views[i].Index().Relabeling()
		if len(other) != len(base) {
			return nil, fmt.Errorf("shard: slice %d carries a different relabeling (%d nodes, shard 0 has %d)", i, len(other), len(base))
		}
		for j := range base {
			if base[j] != other[j] {
				return nil, fmt.Errorf("shard: slice %d carries a different relabeling (differs at node %d)", i, j)
			}
		}
	}
	c := &Coordinator{
		g:          g,
		pm:         pm,
		views:      views,
		params:     views[0].Index().Options().RWR,
		maxK:       views[0].Index().K(),
		workers:    cfg.Workers,
		roundIters: cfg.RoundIters,
	}
	for i := 1; i < len(views); i++ {
		if k := views[i].Index().K(); k < c.maxK {
			c.maxK = k
		}
	}
	if c.workers <= 0 {
		c.workers = len(slices)
	}
	if c.roundIters <= 0 {
		c.roundIters = DefaultRoundIters
	}
	return c, nil
}

// NewFromFull slices a full index P ways under pm and builds the in-process
// coordinator over the slices — the one-process deployment shape, and what
// bench/'s shard probe (shard.query_ms_p2, shard.prune_fraction) measures.
func NewFromFull(g graph.View, idx *lbindex.Index, pm *partition.Map, cfg Config) (*Coordinator, error) {
	slices := make([]*lbindex.Index, pm.P())
	for s := range slices {
		sl, err := idx.ShardSlice(pm, s)
		if err != nil {
			return nil, err
		}
		slices[s] = sl
	}
	return NewInProc(g, slices, cfg)
}

// P returns the shard count.
func (c *Coordinator) P() int { return len(c.views) }

// N returns the node count of the shared graph.
func (c *Coordinator) N() int { return c.g.N() }

// MaxK returns the largest k every shard's index supports.
func (c *Coordinator) MaxK() int { return c.maxK }

// Partition returns the shared partition map.
func (c *Coordinator) Partition() *partition.Map { return c.pm }

// Views returns the per-shard query views, in shard order.
func (c *Coordinator) Views() []*core.View { return c.views }

// Query answers one reverse top-k query by scatter-gather over the shards.
// The answer set is bit-identical to core.Engine.Query on the unsharded
// index, in ascending node order. Like core.View, the coordinator is a
// relabeling translation boundary: q and the answer are external ids,
// translated to and from the internal space the slices store (free when no
// relabeling is installed).
func (c *Coordinator) Query(q graph.NodeID, k int) ([]graph.NodeID, QueryStats, error) {
	stats := QueryStats{Query: q, K: k}
	if int(q) < 0 || int(q) >= c.g.N() {
		return nil, stats, fmt.Errorf("shard: query node %d out of range [0,%d)", q, c.g.N())
	}
	if k <= 0 || k > c.maxK {
		return nil, stats, fmt.Errorf("shard: k=%d outside [1,%d] supported by every shard", k, c.maxK)
	}
	start := time.Now()
	q = c.views[0].Index().ToInternal(q)

	screens := make([]*core.Screen, len(c.views))
	for i, v := range c.views {
		s, err := v.NewScreen(k)
		if err != nil {
			return nil, stats, err
		}
		screens[i] = s
	}
	stepper, err := rwr.NewToStepper(c.g, q, c.params, c.workers)
	if err != nil {
		return nil, stats, err
	}
	stepper.RoundHook = c.RoundObserver

	// Scatter-gather rounds: advance the shared PMPN, broadcast the
	// iterate + error band, gather each shard's round report. The first
	// exchange is deferred until τ can fire at all — while τ exceeds the
	// global max k-th lower bound, no shard can prune anything (and
	// confirmations need plo ≥ UB ≥ that same bound's scale), so earlier
	// rounds would be pure overhead.
	oneMinus := 1 - c.params.Alpha
	undecided := math.MaxInt
	roundLen := c.roundIters
	maxLB := 0.0
	for _, s := range screens {
		if lb := s.MaxLowerBound(); lb > maxLB {
			maxLB = lb
		}
	}
	if maxLB > 0 && maxLB < 1 {
		if warm := int(math.Ceil(math.Log(maxLB) / math.Log(oneMinus))); warm > roundLen {
			roundLen = warm
		}
	}
	converged := false
	var pmpnElapsed time.Duration
	for !converged && undecided > 0 {
		t0 := time.Now()
		converged, err = stepper.Step(roundLen)
		pmpnElapsed += time.Since(t0)
		if err != nil {
			return nil, stats, err
		}
		x, tau := stepper.Current(), stepper.Tail()
		reports := make([]core.RoundReport, len(screens))
		var wg sync.WaitGroup
		for i, s := range screens {
			wg.Add(1)
			go func(i int, s *core.Screen) {
				defer wg.Done()
				reports[i] = s.Advance(x, tau)
			}(i, s)
		}
		wg.Wait()
		stats.Rounds++
		undecided = 0
		minGap := math.Inf(1)
		for _, rep := range reports {
			undecided += rep.Undecided
			stats.PrunedByBound += rep.Pruned
			stats.ConfirmedByBound += len(rep.NewHits)
			if rep.MinPruneGap < minGap {
				minGap = rep.MinPruneGap
			}
		}
		// The exchanged global bound sizes the next round: τ must fall
		// under the tightest open lower-bound gap before the pruning test
		// can fire anywhere, which takes log(τ/gap)/log(1/(1−α))
		// iterations — no point gathering sooner.
		roundLen = c.roundIters
		if undecided > 0 && !math.IsInf(minGap, 1) && minGap < tau {
			need := int(math.Ceil(math.Log(minGap/tau) / math.Log(oneMinus)))
			if need > roundLen {
				roundLen = need
			}
			if roundLen > maxRoundIters {
				roundLen = maxRoundIters
			}
		}
	}
	stats.PMPNIters = stepper.Iterations()
	stats.PMPNElapsed = pmpnElapsed
	stats.EarlyStop = !converged

	// Final exact pass for candidates the bounds could not decide; the
	// converged vector is bit-identical to the single engine's PMPN, so
	// these decisions (refinement and all) match it exactly.
	var results []graph.NodeID
	if undecided > 0 {
		pq := stepper.Result().Vector
		decideWorkers := c.workers / len(c.views)
		if decideWorkers < 1 {
			decideWorkers = 1
		}
		type out struct {
			res   []graph.NodeID
			stats core.QueryStats
			err   error
		}
		outs := make([]out, len(c.views))
		var wg sync.WaitGroup
		for i, v := range c.views {
			wg.Add(1)
			go func(i int, v *core.View) {
				defer wg.Done()
				o := &outs[i]
				o.res, o.stats, o.err = v.DecideList(q, pq, k, screens[i].Survivors(), decideWorkers)
			}(i, v)
		}
		wg.Wait()
		stats.PerShard = make([]core.QueryStats, len(outs))
		for i := range outs {
			if outs[i].err != nil {
				return nil, stats, fmt.Errorf("shard %d: %w", i, outs[i].err)
			}
			stats.Survivors += len(screens[i].Survivors())
			stats.PerShard[i] = outs[i].stats
			results = append(results, outs[i].res...)
		}
	}
	for _, s := range screens {
		results = append(results, s.Hits()...)
	}
	if idx := c.views[0].Index(); idx.Relabeling() != nil {
		for i := range results {
			results[i] = idx.ToExternal(results[i])
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i] < results[j] })
	stats.Results = len(results)
	stats.Elapsed = time.Since(start)
	return results, stats, nil
}
