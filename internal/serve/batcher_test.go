package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestBatchedQueriesMatchOracle: concurrent bursts of distinct queries
// coalesce into SpMM groups and every response still equals the brute-force
// oracle — batching changes throughput, never answers.
func TestBatchedQueriesMatchOracle(t *testing.T) {
	g := testGraph(t, 91, 80)
	idx := testIndex(t, g, 6)
	orc := newOracle(t, g)
	s, ts := newTestServer(t, g, idx, Config{
		CacheBytes:  -1, // every request computes; nothing served from cache
		MaxInflight: 64, // admit the whole burst regardless of core count
		SpMMBatch:   4,
		SpMMWindow:  5 * time.Millisecond,
	})

	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			q := graph.NodeID((round*8 + i*7) % g.N())
			k := 1 + i%6
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=%d", ts.URL, q, k))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("q=%d k=%d: status %d: %s", q, k, resp.StatusCode, body)
					return
				}
				qr := decodeQuery(t, body)
				if want := orc.answer(q, k); !sameNodes(qr.Results, want) {
					t.Errorf("q=%d k=%d: got %v, oracle %v", q, k, qr.Results, want)
				}
			}()
		}
		wg.Wait()
	}
	if got := s.m.spmmBatched.Value(); got == 0 {
		t.Error("no queries went through the SpMM tier despite concurrent bursts")
	}
	if groups := s.m.spmmGroups.Value(); groups == 0 {
		t.Error("no SpMM groups fired")
	}
}

// TestBatchedEarlyReleaseUnderStarvation is the worker-budget accounting
// regression test: a fast query coalesced into the same SpMM group as a
// slow one must return — and release its admission slot — as soon as its
// own column is decided, not when the whole group finishes. The broken
// accounting held every member's slot until the group completed, so a
// stream of fast queries sharing groups with slow ones starved follow-up
// traffic into 503s.
func TestBatchedEarlyReleaseUnderStarvation(t *testing.T) {
	g := testGraph(t, 92, 60)
	idx := testIndex(t, g, 4)
	// Width 2 fires a group the instant its second member joins; the long
	// window guarantees the two concurrent requests coalesce rather than
	// racing the timer. MaxInflight 3 admits the held slow query plus one
	// follow-up PAIR only if the fast query's slot was really freed.
	s, ts := newTestServer(t, g, idx, Config{
		CacheBytes:  -1,
		MaxInflight: 3,
		SpMMBatch:   2,
		SpMMWindow:  10 * time.Second,
	})

	const slowQ, fastQ = 1, 2
	// slowQ is queried exactly once (the cache and its single-flight are
	// off), so the gate blocks exactly one delivery.
	release := make(chan struct{})
	s.testDeliverGate = func(q graph.NodeID) {
		if q == slowQ {
			<-release
		}
	}

	type result struct {
		status int
		body   []byte
	}
	query := func(q graph.NodeID, out chan<- result) {
		resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=3", ts.URL, q))
		out <- result{resp.StatusCode, body}
	}

	slowDone := make(chan result, 1)
	fastDone := make(chan result, 1)
	// Both queries end in an exact fallback, and QueryMulti delivers such
	// parked members one after the other in group order, so the gate on the
	// slow one also holds back whoever comes after it. The fast query
	// therefore joins the group first; the slow one then fires it.
	go query(fastQ, fastDone)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		s.batcher.mu.Lock()
		open := len(s.batcher.groups)
		s.batcher.mu.Unlock()
		if open == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fast query never joined an SpMM group")
		}
	}
	go query(slowQ, slowDone)

	// The fast member of the group returns while the slow one is gated.
	select {
	case r := <-fastDone:
		if r.status != http.StatusOK {
			t.Fatalf("fast query: status %d: %s", r.status, r.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fast query did not return while its group-mate was held")
	}
	select {
	case r := <-slowDone:
		t.Fatalf("slow query returned while gated: status %d", r.status)
	default:
	}

	// Its slot is free: a follow-up pair (one more group) fits inside
	// MaxInflight=3 alongside the still-held slow query. With the broken
	// accounting the fast query's slot would still be occupied and one of
	// these would be rejected with 503.
	pair := make(chan result, 2)
	go query(10, pair)
	go query(11, pair)
	for i := 0; i < 2; i++ {
		select {
		case r := <-pair:
			if r.status != http.StatusOK {
				t.Fatalf("follow-up query: status %d: %s", r.status, r.body)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("follow-up pair did not complete")
		}
	}

	close(release)
	r := <-slowDone
	if r.status != http.StatusOK {
		t.Fatalf("slow query after release: status %d: %s", r.status, r.body)
	}
	if in := s.active.Load(); in != 0 {
		t.Fatalf("inflight = %d after all queries returned", in)
	}
}

// TestSpMMBatchDisabled: negative SpMMBatch turns the batcher off entirely
// and queries compute scalar.
func TestSpMMBatchDisabled(t *testing.T) {
	g := testGraph(t, 93, 40)
	idx := testIndex(t, g, 4)
	orc := newOracle(t, g)
	s, ts := newTestServer(t, g, idx, Config{SpMMBatch: -1})
	if s.batcher != nil {
		t.Fatal("batcher constructed despite SpMMBatch < 0")
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		q := graph.NodeID(i * 5 % g.N())
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, fmt.Sprintf("%s/v1/reverse-topk?q=%d&k=2", ts.URL, q))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("q=%d: status %d: %s", q, resp.StatusCode, body)
				return
			}
			if qr := decodeQuery(t, body); !sameNodes(qr.Results, orc.answer(q, 2)) {
				t.Errorf("q=%d: wrong answer %v", q, qr.Results)
			}
		}()
	}
	wg.Wait()
	if s.m.spmmGroups.Value() != 0 || s.m.spmmBatched.Value() != 0 {
		t.Error("SpMM counters moved with batching disabled")
	}
}
