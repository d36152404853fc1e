package serve

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// spmmBatcher coalesces concurrently admitted query computations on the
// same snapshot into SpMM groups (core.View.QueryMulti): the group's PMPN
// proximity columns advance in one shared slab, amortizing the transition
// matrix's memory traffic across the group — the serving bottleneck at
// production traffic, where every scalar query streams the whole CSR from
// RAM by itself.
//
// Coalescing is bounded two ways: a group fires as soon as it reaches the
// configured width, or when its window timer expires, whichever comes
// first — a lone query pays at most one window of extra latency, never
// waits for a full group. A group that fires with a single member takes
// the scalar path (one column gains nothing from a slab).
//
// Admission stays PER QUERY: each request holds its own admission slot
// (Server.active) and releases it the moment its OWN result is delivered.
// QueryMulti retires each query's column as it converges and decides it
// immediately, so a fast query coalesced with a slow one returns early and
// frees its slot — the group never holds capacity for members already
// answered (see the starvation regression test).
type spmmBatcher struct {
	width  int
	window time.Duration

	mu     sync.Mutex
	groups map[*Snapshot]*spmmGroup // guarded by mu; open (not yet fired) group per snapshot
}

// spmmGroup is one forming batch, pinned to the snapshot all its members
// validated against.
type spmmGroup struct {
	snap    *Snapshot
	entries []*spmmEntry
	timer   *time.Timer
}

// spmmEntry is one request's membership in a group; done closes when body,
// err and stats are final.
type spmmEntry struct {
	q    graph.NodeID
	k    int
	done chan struct{}
	body []byte
	err  error
	// stats is this query's own phase record from the group computation,
	// written by the deliver callback before done closes.
	stats core.QueryStats
}

func newSpmmBatcher(width int, window time.Duration) *spmmBatcher {
	return &spmmBatcher{width: width, window: window, groups: make(map[*Snapshot]*spmmGroup)}
}

// joinGroup adds one admitted computation to the snapshot's open group,
// opening a fresh one (and arming its window timer) when none is pending.
// The caller blocks on the returned entry's done channel; the group runs on
// its own goroutine so no member's handler is drafted into serving the
// others' results.
func (s *Server) joinGroup(snap *Snapshot, q graph.NodeID, k int) *spmmEntry {
	b := s.batcher
	e := &spmmEntry{q: q, k: k, done: make(chan struct{})}
	b.mu.Lock()
	g := b.groups[snap]
	if g == nil {
		g = &spmmGroup{snap: snap}
		b.groups[snap] = g
		g.timer = time.AfterFunc(b.window, func() {
			b.mu.Lock()
			if b.groups[snap] != g {
				// Already fired at full width; nothing to do.
				b.mu.Unlock()
				return
			}
			delete(b.groups, snap)
			b.mu.Unlock()
			s.runGroup(g)
		})
	}
	g.entries = append(g.entries, e)
	if len(g.entries) >= b.width {
		delete(b.groups, snap)
		g.timer.Stop()
		b.mu.Unlock()
		go s.runGroup(g)
		return e
	}
	b.mu.Unlock()
	return e
}

// runGroup evaluates one fired group and finishes every entry exactly once.
func (s *Server) runGroup(g *spmmGroup) {
	entries := g.entries
	if len(entries) == 1 {
		e := entries[0]
		e.body, e.stats, e.err = s.computeScalar(g.snap, e.q, e.k)
		close(e.done)
		return
	}
	s.m.spmmGroups.Inc()
	s.m.spmmBatched.Add(uint64(len(entries)))
	qs := make([]graph.NodeID, len(entries))
	ks := make([]int, len(entries))
	for i, e := range entries {
		qs[i], ks[i] = e.q, e.k
	}
	// The group's share of the worker budget is its members' combined
	// per-query share at fire time (clamped to the whole budget): the slab
	// sweep is one computation doing the work of len(entries) queries.
	active := int(s.active.Load())
	if active < 1 {
		active = 1
	}
	workers := s.budget * len(entries) / active
	if workers < 1 {
		workers = 1
	}
	if workers > s.budget {
		workers = s.budget
	}
	err := g.snap.View.QueryMulti(qs, ks, workers, func(i int, answer []graph.NodeID, qstats core.QueryStats, qerr error) {
		e := entries[i]
		if gate := s.testDeliverGate; gate != nil {
			gate(e.q)
		}
		e.stats = qstats
		if qerr != nil {
			e.err = qerr
			close(e.done)
			return
		}
		if answer == nil {
			answer = []graph.NodeID{}
		}
		s.m.computed.With("exact").Inc()
		e.body, e.err = json.Marshal(QueryResponse{
			Query:   e.q,
			K:       e.k,
			Epoch:   g.snap.Epoch,
			Count:   len(answer),
			Results: answer,
		})
		close(e.done)
	})
	if err != nil {
		// Batch-wide validation failure: QueryMulti delivered nothing, so
		// every entry is still open. Cannot happen for parameters that
		// passed ValidateQueryParams; handled so no request can hang.
		for _, e := range entries {
			e.err = err
			close(e.done)
		}
	}
}
