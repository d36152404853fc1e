// Package shard distributes one reverse top-k query across P shard
// engines, each owning a partition of the node set (internal/partition)
// over a shard slice of the lower-bound index (lbindex.ShardSlice) and a
// replicated graph + hub matrix.
//
// The decomposition follows the paper's own structure: the only global
// computation in Algorithm 4 is the PMPN vector p_·(q); every subsequent
// per-candidate decision touches one node's index row. The coordinator is
// therefore core's one query pipeline (core.Run) over P screens instead of
// one: it computes the PMPN ONCE (where a naive federation would compute it P
// times), and after each round every shard's core.Screen prunes or confirms
// its own rows with the paper's bounds — the k-th lower bound p̂_u(k) on one
// side and the Algorithm-3 staircase upper bound on the other — evaluated
// against the iterate's rigorous error band (rwr.ToStepper). The loop folds the
// shards' reports (undecided counts and the tightest open k-th-score
// lower-bound gap) into the global bound that sizes the next round and stops
// the PMPN outright once every shard reports its candidates decided.
// Candidates still open when the PMPN converges are refined against the
// converged vector by the pipeline's finish, once a shard (core.View.Finish),
// so the merged answer is bit-identical to the single-engine answer — see
// core.Screen for the monotonicity argument. The round schedule is core's
// (core.Run.Rounds), the same one the unsharded anytime tier runs.
//
// This file is the in-process transport: P core.Views in one address
// space. The HTTP transport — stock rtkserve daemons each loaded with one
// shard-slice file, fanned out to by a coordinator daemon — lives in
// internal/serve (Fanout).
package shard

import (
	"fmt"
	"math"
	"slices"
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
}

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
	// PrunedByBound / ConfirmedByBound count nodes the shards' screens decided
	// from bounds: in the exchange rounds (τ > 0) and, when the PMPN converged
	// with candidates open, in the τ = 0 screen of the converged vector that
	// ends the last one. Refinement never looks at them.
	PrunedByBound    int
	ConfirmedByBound int
	// Survivors is the number of candidates left for refinement when the
	// rounds ended, on both entry points — Query finishes exactly these,
	// QueryAnytime returns them as the maybe set — so that PrunedByBound +
	// ConfirmedByBound + Survivors is the node count.
	Survivors int
	// EpsAchieved is QueryAnytime's final undecided fraction (0 for Query).
	EpsAchieved float64
	// Results is the answer-set size.
	Results int
	// PerShard carries the finish's per-shard engine stats, each with a cold
	// query's phases: the shared pmpn, the shard's decide and fallback. Nil
	// when EarlyStop skipped the finish, and under QueryAnytime.
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

	workers int

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
			if len(slices) > 1 {
				return nil, fmt.Errorf("shard: index %d is not a shard slice", i)
			}
			// A single full index is a valid 1-shard deployment; give
			// it the trivial partition.
			var err error
			if ipm, err = partition.NewRange(idx.N(), 1); err == nil {
				idx, err = idx.ShardSlice(ipm, 0)
			}
			if err != nil {
				return nil, err
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
		g:       g,
		pm:      pm,
		views:   views,
		params:  views[0].Index().Options().RWR,
		maxK:    views[0].Index().K(),
		workers: cfg.Workers,
	}
	for i := 1; i < len(views); i++ {
		if k := views[i].Index().K(); k < c.maxK {
			c.maxK = k
		}
	}
	if c.workers <= 0 {
		c.workers = len(slices)
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
	start := time.Now()
	// The loop stops once no shard has a candidate open, or converged.
	r, screens, stats, err := c.rounds(q, k, 0)
	if err != nil {
		return nil, stats, err
	}
	// Finish, once a shard, for candidates the bounds could not decide; the
	// converged vector is bit-identical to the single engine's PMPN, so these
	// decisions (refinement and all) match it exactly. An early stop left
	// nothing open: the screens' hits are the answer.
	parts := make([][]graph.NodeID, len(c.views))
	if stats.EarlyStop {
		for i, s := range screens {
			parts[i] = s.Hits()
		}
	} else {
		decideWorkers := max(1, c.workers/len(c.views))
		stats.PerShard = make([]core.QueryStats, len(c.views))
		errs := make([]error, len(c.views))
		var wg sync.WaitGroup
		for i, v := range c.views {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[i], stats.PerShard[i], errs[i] = v.Finish(r, screens[i], decideWorkers)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, stats, fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	results := c.merge(parts)
	stats.EpsAchieved = 0 // whatever the rounds left open, the finish decided
	stats.Results = len(results)
	stats.Elapsed = time.Since(start)
	return results, stats, nil
}

// rounds validates a query and runs core's round loop over one screen a shard
// under the undecided-fraction budget eps, reporting the loop's stats.
func (c *Coordinator) rounds(q graph.NodeID, k int, eps float64) (*core.Run, []*core.Screen, QueryStats, error) {
	stats := QueryStats{Query: q, K: k}
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return nil, nil, stats, fmt.Errorf("shard: eps=%v outside [0,1)", eps)
	}
	if int(q) < 0 || int(q) >= c.g.N() {
		return nil, nil, stats, fmt.Errorf("shard: query node %d out of range [0,%d)", q, c.g.N())
	}
	if k <= 0 || k > c.maxK {
		return nil, nil, stats, fmt.Errorf("shard: k=%d outside [1,%d] supported by every shard", k, c.maxK)
	}
	screens := make([]*core.Screen, len(c.views))
	for i, v := range c.views {
		s, err := v.NewScreen(k)
		if err != nil {
			return nil, nil, stats, err
		}
		screens[i] = s
	}
	r, err := core.NewRun(c.g, c.views[0].Index().ToInternal(q), c.params, c.workers, c.RoundObserver, screens...)
	if err == nil {
		err = r.Rounds(eps, core.DefaultAnytimeRoundIters)
	}
	if err != nil {
		return nil, nil, stats, err
	}
	rs := r.Stats()
	stats.PMPNIters, stats.PMPNElapsed, stats.Rounds = rs.PMPNIters, rs.PMPNElapsed, rs.Rounds
	stats.EarlyStop, stats.EpsAchieved = !rs.Converged, rs.EpsAchieved
	stats.PrunedByBound, stats.ConfirmedByBound, stats.Survivors = rs.PrunedByBound, rs.ConfirmedByBound, rs.Maybe
	return r, screens, stats, nil
}

// merge concatenates per-shard node lists (internal labels) into one
// ascending list of external ids.
func (c *Coordinator) merge(parts [][]graph.NodeID) []graph.NodeID {
	var all []graph.NodeID
	idx := c.views[0].Index()
	for _, part := range parts {
		for _, u := range part {
			all = append(all, idx.ToExternal(u))
		}
	}
	slices.Sort(all)
	return all
}
