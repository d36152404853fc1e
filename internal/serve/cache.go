package serve

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// CacheKey identifies one cached result. The epoch component ties every
// entry to the snapshot that produced it: after a snapshot swap, lookups
// carry the new epoch and can never alias a stale answer. Mode and Eps
// discriminate the result families that share (Q, K, Epoch): an anytime
// answer under one budget is a different value from the exact answer (and
// from an anytime answer under another budget), so keying them apart is what
// guarantees an approx body can never be served to an exact request or vice
// versa. The zero value of both fields is the exact query, keeping every
// pre-existing key literal meaning what it meant.
type CacheKey struct {
	Q graph.NodeID
	K int
	// Mode is "" for exact queries, ModeApprox for anytime ones.
	Mode string
	// Eps is the anytime budget (always 0 for exact). It is validated
	// finite and a zero is always +0, so the comparable-struct key never
	// holds a NaN and one key never stands for two bodies ("eps":0 and
	// "eps":-0).
	Eps   float64
	Epoch uint64
}

// CacheStatus classifies how GetOrCompute satisfied a call.
type CacheStatus int

const (
	// StatusMiss: this call ran compute and (on success) stored the result.
	StatusMiss CacheStatus = iota
	// StatusHit: served from a completed cache entry.
	StatusHit
	// StatusCoalesced: an identical call was already computing; this call
	// waited for it and shares its result (single-flight deduplication).
	StatusCoalesced
	// StatusBypass: caching is disabled (capacity 0); compute ran directly.
	StatusBypass
)

// String returns the HTTP X-Cache header value for the status.
func (s CacheStatus) String() string {
	switch s {
	case StatusMiss:
		return "MISS"
	case StatusHit:
		return "HIT"
	case StatusCoalesced:
		return "COALESCED"
	case StatusBypass:
		return "BYPASS"
	default:
		return fmt.Sprintf("CacheStatus(%d)", int(s))
	}
}

// flight is one in-progress computation awaited by coalesced callers.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

type entry struct {
	key CacheKey
	val []byte
}

// cacheEntryOverhead approximates the per-entry bookkeeping cost beyond the
// value bytes themselves: the key, the list element, the map slot and the
// entry header. Accounting it keeps a flood of tiny results from occupying
// unbounded real memory behind a "bytes" budget that would otherwise read
// as nearly empty.
const cacheEntryOverhead = 128

// entryCost is the budget charge for caching one value.
func entryCost(val []byte) int64 { return int64(len(val)) + cacheEntryOverhead }

// Cache is an LRU result cache with single-flight deduplication, bounded by
// BYTES rather than entries: a k=1000 response is charged what it actually
// weighs, so heavy traffic with large k cannot grow memory past the budget
// the way an entry-counted bound would. Values are the exact serialized
// response bytes, so a cached response is byte-identical to the fresh
// computation that produced it. Errors are never cached: a failed compute
// leaves no entry, and its coalesced waiters receive the same error.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64                      // guarded by mu; sum of entryCost over cached entries
	ll       *list.List                 // guarded by mu; front = most recently used
	items    map[CacheKey]*list.Element // guarded by mu
	flights  map[CacheKey]*flight       // guarded by mu
	// liveEpoch (valid when haveLive) is the newest epoch DropOtherEpochs
	// kept. A compute that straggles past a publish must not re-insert an
	// entry for a dropped epoch: the key could never be looked up again,
	// so it would only waste budget. Guarded by mu.
	liveEpoch uint64
	haveLive  bool // guarded by mu

	// Eviction accounting, by cause: entries evicted to stay under the
	// byte budget, entries dropped on an epoch swap, and completed values
	// refused because they exceed the whole budget (or their epoch was
	// already stale at insert). Read by the metrics layer.
	evictedCapacity atomic.Int64
	droppedEpoch    atomic.Int64
	skippedOversize atomic.Int64
}

// NewCache creates a cache bounded to maxBytes of accounted payload.
// maxBytes ≤ 0 disables caching AND deduplication: GetOrCompute always runs
// compute.
func NewCache(maxBytes int64) *Cache {
	c := &Cache{maxBytes: maxBytes}
	if maxBytes > 0 {
		c.ll = list.New()
		c.items = make(map[CacheKey]*list.Element)
		c.flights = make(map[CacheKey]*flight)
	}
	return c
}

// Cap returns the configured byte budget (≤ 0 when disabled).
func (c *Cache) Cap() int64 { return c.maxBytes }

// Bytes returns the accounted size of all completed cached entries.
func (c *Cache) Bytes() int64 {
	if c.maxBytes <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of completed cached entries.
func (c *Cache) Len() int {
	if c.maxBytes <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// GetOrCompute returns the cached value for k, or computes it. Concurrent
// calls for the same key are deduplicated: exactly one runs compute, the
// rest wait and share its outcome. The returned status reports which path
// served the call.
func (c *Cache) GetOrCompute(k CacheKey, compute func() ([]byte, error)) ([]byte, CacheStatus, error) {
	if c == nil || c.maxBytes <= 0 {
		val, err := compute()
		return val, StatusBypass, err
	}
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, StatusHit, nil
	}
	if f, ok := c.flights[k]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val, StatusCoalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()

	completed := false
	defer func() {
		c.mu.Lock()
		delete(c.flights, k)
		cost := entryCost(f.val)
		if completed && f.err == nil && cost <= c.maxBytes && (!c.haveLive || k.Epoch == c.liveEpoch) {
			c.items[k] = c.ll.PushFront(&entry{key: k, val: f.val})
			c.bytes += cost
			// Evict least-recently-used entries until back under budget. A
			// single oversized value was skipped above: evicting the whole
			// cache to admit something that cannot fit helps no one.
			for c.bytes > c.maxBytes {
				oldest := c.ll.Back()
				e := oldest.Value.(*entry)
				c.ll.Remove(oldest)
				delete(c.items, e.key)
				c.bytes -= entryCost(e.val)
				c.evictedCapacity.Add(1)
			}
		} else if completed && f.err == nil {
			// A completed value the cache refused: too big for the whole
			// budget, or computed for an epoch that was dropped mid-flight.
			c.skippedOversize.Add(1)
		} else if !completed {
			// compute panicked: release waiters with an error instead of
			// leaving them blocked forever (the panic itself propagates).
			f.err = fmt.Errorf("serve: compute aborted")
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	completed = true
	return f.val, StatusMiss, f.err
}

// DropOtherEpochs removes every completed entry whose epoch differs from
// keep, returning how many were removed. Store.Publish invokes it on every
// epoch bump: old-epoch entries can never be looked up again (keys carry
// the new epoch), so dropping them eagerly frees their bytes immediately
// instead of letting dead entries squat in the budget until eviction
// happens to reach them.
func (c *Cache) DropOtherEpochs(keep uint64) int {
	if c == nil || c.maxBytes <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.liveEpoch, c.haveLive = keep, true
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry); e.key.Epoch != keep {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.bytes -= entryCost(e.val)
			dropped++
		}
		el = next
	}
	c.droppedEpoch.Add(int64(dropped))
	return dropped
}
