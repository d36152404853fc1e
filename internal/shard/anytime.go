package shard

import (
	"time"

	"repro/internal/graph"
)

// QueryAnytime is the sharded form of core.View.QueryAnytime: the same round
// loop as Query (core.Run.Rounds), stopped as soon as the global undecided
// fraction meets the ε budget — the shards' gathered reports ARE the budget
// check, so no extra exchange is needed — and no finish. The answer comes back
// in two parts, both ascending:
//
//   - guaranteed: nodes some shard's monotone-safe bound tests confirmed;
//   - maybe: nodes still undecided when the exchange stopped.
//
// Every decision is deterministic, so guaranteed ⊆ exact ⊆ guaranteed ∪ maybe
// unconditionally, and under the one round schedule the two parts equal the
// unsharded View.QueryAnytime's — shards decide exactly the nodes the full
// screen would, just partitioned. If the screens are final or the PMPN
// converges before the budget is met, the exchange stops and reports the
// achieved ε honestly (Stats.EpsAchieved > eps, Final or Converged); the
// maybe set is then precisely the exact path's refinement candidates. The
// full refinement pass — the dominant share of exact latency — never runs.
func (c *Coordinator) QueryAnytime(q graph.NodeID, k int, eps float64) (guaranteed, maybe []graph.NodeID, stats QueryStats, err error) {
	start := time.Now()
	_, screens, stats, err := c.rounds(q, k, eps)
	if err != nil {
		return nil, nil, stats, err
	}
	hits, open := make([][]graph.NodeID, len(screens)), make([][]graph.NodeID, len(screens))
	for i, s := range screens {
		hits[i], open[i] = s.Hits(), s.Survivors()
	}
	guaranteed, maybe = c.merge(hits), c.merge(open)
	stats.Results = len(guaranteed)
	stats.Elapsed = time.Since(start)
	return guaranteed, maybe, stats, nil
}
