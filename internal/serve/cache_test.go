package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbindex"
)

// TestCacheByteIdenticalProperty drives a randomized (q, k) stream through
// a caching server and a cache-disabled twin over the same snapshot: every
// cached response must be byte-identical to the fresh recomputation.
func TestCacheByteIdenticalProperty(t *testing.T) {
	g, idx := fixture(t)
	_, cached := newTestServer(t, g, idx, Config{})
	_, fresh := newTestServer(t, g, idx, Config{CacheBytes: -1})

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 120; i++ {
		q, k := rng.Intn(g.N()), 1+rng.Intn(6)
		path := fmt.Sprintf("/v1/reverse-topk?q=%d&k=%d", q, k)
		respC, bodyC := get(t, cached.URL+path)
		respF, bodyF := get(t, fresh.URL+path)
		if respC.StatusCode != http.StatusOK || respF.StatusCode != http.StatusOK {
			t.Fatalf("q=%d k=%d: statuses %d/%d", q, k, respC.StatusCode, respF.StatusCode)
		}
		if respF.Header.Get("X-Cache") != "BYPASS" {
			t.Fatalf("cache-disabled server reported X-Cache=%s", respF.Header.Get("X-Cache"))
		}
		if !bytes.Equal(bodyC, bodyF) {
			t.Fatalf("q=%d k=%d: cached body %s != fresh body %s (X-Cache=%s)",
				q, k, bodyC, bodyF, respC.Header.Get("X-Cache"))
		}
	}
}

// TestCacheLRUBound checks the byte-accounted LRU never exceeds its
// budget, evicts the least recently used key, and recomputes evicted
// entries. Values are fixed-length, so the budget admits exactly
// `capacity` of them.
func TestCacheLRUBound(t *testing.T) {
	const capacity = 8
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%03d", i)) }
	perEntry := entryCost(val(0))
	c := NewCache(capacity * perEntry)
	var computes atomic.Int64
	fetch := func(i int) CacheStatus {
		_, status, err := c.GetOrCompute(CacheKey{Q: graph.NodeID(i), K: 1, Epoch: 1}, func() ([]byte, error) {
			computes.Add(1)
			return val(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return status
	}

	for i := 0; i < 50; i++ {
		fetch(i)
		if got := c.Bytes(); got > c.Cap() {
			t.Fatalf("after %d inserts the cache holds %d bytes, cap %d", i+1, got, c.Cap())
		}
	}
	if got := c.Len(); got != capacity {
		t.Fatalf("cache holds %d entries, want full at %d", got, capacity)
	}
	if got := c.Bytes(); got != capacity*perEntry {
		t.Fatalf("cache accounts %d bytes, want %d", got, capacity*perEntry)
	}
	// The last `capacity` keys survived; everything older was evicted.
	for i := 50 - capacity; i < 50; i++ {
		if status := fetch(i); status != StatusHit {
			t.Errorf("key %d: status %v, want HIT", i, status)
		}
	}
	if status := fetch(0); status != StatusMiss {
		t.Errorf("evicted key 0 served with status %v, want MISS (recompute)", status)
	}

	// Cache now holds (oldest → newest) 43..49, 0. Touching the LRU entry
	// protects it: the next insert evicts 44 instead.
	if status := fetch(43); status != StatusHit {
		t.Fatalf("key 43: status %v, want HIT", status)
	}
	fetch(99)
	if status := fetch(43); status != StatusHit {
		t.Errorf("recently touched key 43 was evicted (status %v)", status)
	}
	if status := fetch(44); status != StatusMiss {
		t.Errorf("key 44 should have been the eviction victim (status %v)", status)
	}
}

// TestCacheEpochInvalidation checks that an epoch bump invalidates every
// prior entry: lookups at the new epoch recompute, and DropOtherEpochs
// empties the stale generation.
func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache(64 << 10)
	var computes atomic.Int64
	fetch := func(q, epoch int) CacheStatus {
		_, status, err := c.GetOrCompute(CacheKey{Q: graph.NodeID(q), K: 2, Epoch: uint64(epoch)}, func() ([]byte, error) {
			computes.Add(1)
			return []byte(fmt.Sprintf("e%dq%d", epoch, q)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return status
	}
	for q := 0; q < 10; q++ {
		fetch(q, 1)
	}
	if c.Len() != 10 || computes.Load() != 10 {
		t.Fatalf("warmup: len=%d computes=%d", c.Len(), computes.Load())
	}
	// Same queries at the next epoch: nothing may alias.
	for q := 0; q < 10; q++ {
		if status := fetch(q, 2); status != StatusMiss {
			t.Fatalf("q=%d at epoch 2 served with %v, want MISS", q, status)
		}
	}
	if computes.Load() != 20 {
		t.Fatalf("computes %d, want 20 (full recompute at the new epoch)", computes.Load())
	}
	if dropped := c.DropOtherEpochs(2); dropped != 10 {
		t.Fatalf("DropOtherEpochs removed %d, want the 10 stale entries", dropped)
	}
	if c.Len() != 10 {
		t.Fatalf("len %d after drop, want 10 live entries", c.Len())
	}
	for q := 0; q < 10; q++ {
		if status := fetch(q, 2); status != StatusHit {
			t.Fatalf("live entry q=%d lost by DropOtherEpochs (status %v)", q, status)
		}
	}

	// A compute that straggles past the drop (its request pinned the old
	// snapshot) still gets its answer but must NOT re-insert a dropped-epoch
	// entry: the key can never be looked up at that epoch again.
	if status := fetch(77, 1); status != StatusMiss {
		t.Fatalf("straggler compute status %v, want MISS", status)
	}
	if c.Len() != 10 {
		t.Fatalf("straggler compute re-inserted a dropped-epoch entry (len %d)", c.Len())
	}
	if status := fetch(77, 1); status != StatusMiss {
		t.Fatalf("dropped-epoch key was served from cache (status %v)", status)
	}
}

// TestCacheSingleFlight gates the compute function and checks N identical
// concurrent calls run it exactly once and all share its bytes.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(4 << 10)
	const waiters = 32
	var computes atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	key := CacheKey{Q: 7, K: 3, Epoch: 1}

	results := make([][]byte, waiters)
	statuses := make([]CacheStatus, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, status, err := c.GetOrCompute(key, func() ([]byte, error) {
				close(entered)
				<-release
				computes.Add(1)
				return []byte("answer"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], statuses[i] = val, status
		}(i)
	}
	<-entered // exactly one goroutine is computing; a second close would panic
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	misses := 0
	for i := range results {
		if string(results[i]) != "answer" {
			t.Fatalf("waiter %d got %q", i, results[i])
		}
		if statuses[i] == StatusMiss {
			misses++
		} else if statuses[i] != StatusCoalesced && statuses[i] != StatusHit {
			t.Fatalf("waiter %d status %v", i, statuses[i])
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1", misses)
	}
}

// TestCacheErrorsNotCached checks a failed compute leaves no entry and its
// error reaches coalesced waiters, while the next call retries.
func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4 << 10)
	key := CacheKey{Q: 1, K: 1, Epoch: 1}
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(key, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed compute was cached")
	}
	val, status, err := c.GetOrCompute(key, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(val) != "ok" || status != StatusMiss {
		t.Fatalf("retry: %q %v %v", val, status, err)
	}
}

// TestCacheRandomizedStream is the cache property test at the HTTP layer:
// a random stream of queries, repeats, and epoch bumps, asserting byte
// identity between every response and an uncached recomputation AND that
// the LRU bound holds throughout.
func TestCacheRandomizedStream(t *testing.T) {
	g, idx := fixture(t)
	s, err := New(g, idx, Config{CacheBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, fresh := newTestServer(t, g, idx, Config{CacheBytes: -1})

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q, k := rng.Intn(g.N()), 1+rng.Intn(5)
		path := fmt.Sprintf("/v1/reverse-topk?q=%d&k=%d", q, k)
		_, body := get(t, ts.URL+path)
		_, want := get(t, fresh.URL+path)
		if !bytes.Equal(body, want) {
			t.Fatalf("q=%d k=%d: %s != fresh %s", q, k, body, want)
		}
		if got := s.Cache().Bytes(); got > 2048 {
			t.Fatalf("cache exceeded its byte budget: %d > 2048", got)
		}
	}
}

// TestCacheByteAccounting pins the motivating bug: an entry-counted bound
// charges a k=1000 result the same as a k=1 result, so large-k traffic
// grows memory unboundedly. Byte accounting charges what each value
// weighs: big values displace proportionally many small ones, and a value
// that cannot fit at all is simply not cached (rather than flushing the
// whole cache for nothing).
func TestCacheByteAccounting(t *testing.T) {
	small := bytes.Repeat([]byte("s"), 16)   // ~k=1-sized body
	large := bytes.Repeat([]byte("L"), 4096) // ~k=1000-sized body
	budget := 10 * entryCost(large)
	c := NewCache(budget)
	fetch := func(q int, body []byte) CacheStatus {
		_, status, err := c.GetOrCompute(CacheKey{Q: graph.NodeID(q), K: len(body), Epoch: 1}, func() ([]byte, error) {
			return body, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return status
	}

	// Many small entries fit...
	for q := 0; q < 200; q++ {
		fetch(q, small)
	}
	if c.Len() != 200 {
		t.Fatalf("%d small entries cached, want all 200 within the byte budget", c.Len())
	}
	// ...but the same COUNT of large entries must not: the budget holds
	// exactly 10, and each insert stays under it.
	for q := 200; q < 400; q++ {
		fetch(q, large)
		if got := c.Bytes(); got > budget {
			t.Fatalf("cache exceeded its budget: %d > %d", got, budget)
		}
	}
	if got := c.Len(); got != 10 {
		t.Fatalf("cache holds %d entries after the large-value flood, want 10", got)
	}

	// A value bigger than the whole budget is not cached and evicts nothing.
	before := c.Bytes()
	if status := fetch(999, bytes.Repeat([]byte("X"), int(budget))); status != StatusMiss {
		t.Fatalf("oversized value status %v, want MISS", status)
	}
	if c.Bytes() != before {
		t.Fatalf("oversized value disturbed the cache: %d → %d bytes", before, c.Bytes())
	}
	if status := fetch(999, bytes.Repeat([]byte("X"), int(budget))); status != StatusMiss {
		t.Fatalf("oversized value was cached (status %v)", status)
	}
}

// TestPublishDropsStaleEpochsEagerly pins the satellite fix: a snapshot
// publish must invalidate stale cache entries ON the epoch bump, not
// lazily when eviction happens to reach them — immediately after Publish,
// Len/Bytes count only current-epoch entries.
func TestPublishDropsStaleEpochsEagerly(t *testing.T) {
	g, idx := fixture(t)
	store, err := NewStore(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(64 << 10)
	store.AttachCache(c)

	warm := func(epoch uint64, qs ...int) {
		for _, q := range qs {
			_, _, err := c.GetOrCompute(CacheKey{Q: graph.NodeID(q), K: 2, Epoch: epoch}, func() ([]byte, error) {
				return []byte(fmt.Sprintf("e%dq%d", epoch, q)), nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(store.Current().Epoch, 0, 1, 2, 3, 4)
	if c.Len() != 5 {
		t.Fatalf("warmup cached %d entries, want 5", c.Len())
	}

	// Each publish carries the next batch's watermark: its epoch is one more.
	next := func(wm uint64) *lbindex.Index {
		c := idx.Clone()
		c.SetWatermark(wm)
		return c
	}
	snap, err := store.Publish(g, next(1))
	if err != nil {
		t.Fatal(err)
	}
	// No lookup has touched the cache since the bump: eager invalidation
	// must already have emptied the stale generation.
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("stale entries survived Publish: len=%d bytes=%d", c.Len(), c.Bytes())
	}

	// Mixed generations: entries at the new epoch survive the next bump's
	// drop only if current.
	warm(snap.Epoch, 7, 8)
	if c.Len() != 2 {
		t.Fatalf("post-publish warmup cached %d entries, want 2", c.Len())
	}
	if _, err := store.Publish(g, next(2)); err != nil {
		t.Fatal(err)
	}
	// An index whose watermark is not past the served one is refused: the
	// epoch would not advance.
	if _, err := store.Publish(g, next(2)); err == nil || store.Current().Epoch != 3 {
		t.Fatalf("a second publish at watermark 2: err %v, epoch %d", err, store.Current().Epoch)
	}
	if c.Len() != 0 {
		t.Fatalf("second Publish left %d stale entries", c.Len())
	}
}
