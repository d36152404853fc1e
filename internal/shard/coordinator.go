// Package shard distributes one reverse top-k query across P shard
// engines, each owning one node range — the partition.Map a slice file
// stores, cut by partition.NewBalanced when rtkindex wrote it — over a
// shard slice of the lower-bound index (lbindex.ShardSlice) and a
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
// against the round's rigorous bracket on p_·(q) (rwr.Push, then
// rwr.ToStepper if the push hands over). The loop folds the
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
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/partition"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// Config tunes a Coordinator. The zero value selects defaults.
type Config struct {
	// Workers is the coordinator's parallelism budget: the shared PMPN
	// matvec uses all of it, and the final decide phase deals it across
	// the shard engines (≥ 1 each). 0 selects the shard count.
	Workers int
}

// QueryStats reports one distributed query's execution profile: the stats
// of core's round loop over the shards' screens (core.Run.Stats), with the
// answer size, the finish's per-shard stats and the wall clock on top.
//
// Converged false means the rounds stopped the PMPN before convergence
// because the budget was met — for Query, every shard had decided its rows
// from bounds — or because every row left open was final (Final): an early
// stop. PrunedByBound and ConfirmedByBound count nodes the shards' screens
// decided from bounds, in the exchange rounds (τ > 0) and, when the PMPN
// converged with candidates open, in the τ = 0 screen of the converged vector
// that ends the last one; refinement never looks at them. Maybe counts the
// candidates left for refinement when the rounds ended, on both entry points
// — Query finishes exactly these, QueryAnytime returns them as the maybe set
// — so that PrunedByBound + ConfirmedByBound + Maybe is the node count.
// EpsAchieved is QueryAnytime's final undecided fraction (0 for Query).
// Elapsed is the whole query's wall clock.
type QueryStats struct {
	core.AnytimeStats
	// Results is the answer-set size.
	Results int
	// PerShard carries the finish's per-shard engine stats, each with a cold
	// query's phases: the shared pmpn, the shard's decide and fallback. Nil
	// when the rounds left nothing open, which skips the finish, and under
	// QueryAnytime.
	PerShard []core.QueryStats
}

// Coordinator fans reverse top-k queries out over in-process shard
// engines. Safe for concurrent use: per-query state lives on the stack and
// the shard views are themselves concurrency-safe.
type Coordinator struct {
	g      *graph.Graph
	views  []*core.View
	params rwr.Params
	maxK   int

	workers int

	// RoundObserver, when set, watches the shared power iteration of every
	// query this coordinator runs: it is wired to rwr.ToStepper.RoundHook
	// and receives (iteration, L1 residual, tail error bound) after each
	// power iteration — none for a query the backward push ends alone
	// (core.Run.Rounds). Observational only; it runs on the query
	// goroutine, so set it before serving and keep it cheap.
	RoundObserver func(iter int, residual, tail float64)
}

// NewInProc builds a coordinator over one shard slice per shard, in shard
// order. Every slice must carry the same partition map (slice i owning
// shard i) and be built over the given graph's node space.
func NewInProc(g *graph.Graph, slices []*lbindex.Index, cfg Config) (*Coordinator, error) {
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
			if ipm, err = partition.NewBalanced(g, 1); err == nil {
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
	c := &Coordinator{
		g:       g,
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
func NewFromFull(g *graph.Graph, idx *lbindex.Index, pm *partition.Map, cfg Config) (*Coordinator, error) {
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

// Views returns the per-shard query views, in shard order.
func (c *Coordinator) Views() []*core.View { return c.views }

// Query answers one reverse top-k query by scatter-gather over the shards.
// The answer set is bit-identical to core.Engine.Query on the unsharded
// index, in ascending node order.
func (c *Coordinator) Query(q graph.NodeID, k int) ([]graph.NodeID, QueryStats, error) {
	start := time.Now()
	// The loop stops once no shard has a candidate open, the screens are
	// final, or the PMPN converged.
	r, screens, stats, err := c.rounds(q, k, 0)
	if err != nil {
		return nil, stats, err
	}
	// Finish, once a shard, for candidates the bounds could not decide; the
	// iterate and its band are bit-identical to the single engine's PMPN, so
	// these decisions (refinement and all) match it exactly. With nothing
	// open the screens' hits are the answer.
	parts := make([][]graph.NodeID, len(c.views))
	if stats.Maybe == 0 {
		for i, s := range screens {
			parts[i] = s.Hits()
		}
	} else {
		decideWorkers := max(1, c.workers/len(c.views))
		stats.PerShard = make([]core.QueryStats, len(c.views))
		errs := make([]error, len(c.views))
		vecmath.Parallel(len(c.views), func(i int) {
			parts[i], stats.PerShard[i], errs[i] = c.views[i].Finish(r, screens[i], decideWorkers)
		})
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
	stats := QueryStats{AnytimeStats: core.AnytimeStats{RunStats: core.RunStats{Query: q, K: k}, Eps: eps}}
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
	r, err := core.NewRun(c.g, q, c.params, c.workers, c.RoundObserver, screens...)
	if err == nil {
		err = r.Rounds(eps)
	}
	if err != nil {
		return nil, nil, stats, err
	}
	stats.AnytimeStats = r.Stats()
	stats.Eps = eps
	return r, screens, stats, nil
}

// merge concatenates per-shard node lists into one ascending list.
func (c *Coordinator) merge(parts [][]graph.NodeID) []graph.NodeID {
	all := slices.Concat(parts...)
	slices.Sort(all)
	return all
}
