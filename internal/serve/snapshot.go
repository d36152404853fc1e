// Package serve turns the reverse top-k engine into a long-lived query
// daemon: a resident (graph, index) pair behind an HTTP API, with snapshot
// isolation between serving and maintenance, an asynchronous journaled
// edit pipeline, a byte-accounted LRU result cache with single-flight
// deduplication, admission control over engine work (an admitted cache miss
// is computed at once on its request's goroutine with its share of the
// worker budget), and graceful drain.
//
// Snapshot model: the daemon serves from an immutable Snapshot — an epoch
// number plus a core.View over one (graph, index) pair — published behind an
// atomic pointer. The current snapshot's graph is the one copy of the served
// graph. Maintenance builds the NEXT snapshot entirely off to the side
// (graph.Graph.Apply patches the CSR into a new one, and
// evolve.RefreshPartial refreshes an index clone) and publishes it with one
// pointer swap, so readers are never locked out and can never observe a
// half-refreshed index: a request grabs the current snapshot once and runs
// against it to completion, even if a swap lands mid-request. Cached results are keyed by epoch, so a swap
// invalidates the cache by key instead of by locking.
//
// Durability model: New builds a volatile server — edit acknowledgements
// (the 202 watermark) are promises that die with the process. NewDurable
// adds a write-ahead journal (internal/wal): each accepted batch is
// framed, checksummed and fsync'd BEFORE its watermark is returned, and on
// startup the journal suffix newer than the loaded index's embedded
// watermark is replayed through the same maintenance pipeline — including
// deterministic re-rejection of batches that fail at apply time — so a
// recovered server is bit-identical to one that never crashed. Background
// checkpoints (DurabilityConfig.CheckpointDir) save the served index, its
// graph inside, as one file and truncate the journal, bounding replay
// time. Graceful Close drains the queue either way: every acknowledged
// batch is applied, never failed, on an orderly shutdown; the journal
// covers the disorderly ones.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbindex"
)

// Snapshot is one immutable published serving state. Epoch starts at 1 and
// increases by 1 per semantic change (edit batch); it is the cache-key
// component that makes results from different snapshots never alias.
type Snapshot struct {
	Epoch uint64
	View  *core.View

	graphOnce sync.Once
	graphSum  string
}

// GraphSHA256 returns the hex SHA-256 of the served graph (graph.Graph.Digest),
// computed once per snapshot, on first use.
func (s *Snapshot) GraphSHA256() string {
	s.graphOnce.Do(func() { s.graphSum = fmt.Sprintf("%x", s.View.Graph().Digest()) })
	return s.graphSum
}

// Store holds the current snapshot behind an atomic pointer. Reads
// (Current) are wait-free; Publish is lock-free but publishers
// must be serialized externally — the Server's single maintenance
// goroutine is the only publisher.
//
// When the initial index was loaded zero-copy from an mmap'd file, the
// store's snapshots take ownership of the mapping by reference: every
// published index descends from the loaded one via Clone and shares its
// backing, which stays mapped as long as any snapshot (or in-flight
// request pinning one) is reachable, and is unmapped by a GC cleanup once
// the last such reference is gone — see lbindex.Mapping.
type Store struct {
	cur atomic.Pointer[Snapshot]
	// cache, when attached, is invalidated eagerly on every epoch bump.
	// Stale-epoch entries can never be read again, so leaving them to
	// lazy eviction would only pin dead bytes in the budget.
	cache *Cache
}

// AttachCache registers the result cache whose stale epochs every Publish
// drops. Call before the first Publish; the Server wires its own cache.
func (s *Store) AttachCache(c *Cache) { s.cache = c }

// NewStore creates a store serving the given pair as epoch 1.
func NewStore(g *graph.Graph, idx *lbindex.Index) (*Store, error) {
	v, err := core.NewView(g, idx)
	if err != nil {
		return nil, err
	}
	s := &Store{}
	s.cur.Store(&Snapshot{Epoch: 1, View: v})
	return s, nil
}

// Current returns the live snapshot. The caller should grab it once per
// request and use that one snapshot throughout.
func (s *Store) Current() *Snapshot {
	return s.cur.Load()
}

// Publish atomically replaces the current snapshot with a new one over the
// given pair, at the next epoch, and eagerly drops every other epoch from
// the attached cache. It returns the published snapshot.
func (s *Store) Publish(g *graph.Graph, idx *lbindex.Index) (*Snapshot, error) {
	v, err := core.NewView(g, idx)
	if err != nil {
		return nil, err
	}
	for {
		old := s.cur.Load()
		next := &Snapshot{Epoch: old.Epoch + 1, View: v}
		if s.cur.CompareAndSwap(old, next) {
			s.cache.DropOtherEpochs(next.Epoch)
			return next, nil
		}
	}
}
