package vecmath

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the one place the engine and the index builders start
// goroutines: every intra-query and build fan-out goes through Parallel or
// ForEach.

// Workers maps the workers convention every parallel entry point shares to a
// goroutine count: w ≤ 0 selects GOMAXPROCS, any other w is taken as given.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Parallel runs body(p) for every part p ∈ [0, parts) and returns once all
// have. One part runs on the caller's goroutine. Two or more run on one new
// goroutine each while the caller only waits: measured on 64 dense PMPN
// queries over gen.WebGraph(16384, 1) at 2 workers on a 2-vCPU box, running
// part 0 on the caller as well took 8.0–8.3 ms per PMPN against 6.4–7.0 ms
// with every part spawned — likely because a spawned goroutine waits in the
// caller's run-next slot until another processor steals it.
func Parallel(parts int, body func(p int)) {
	if parts == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts)
	for p := range parts {
		go func() {
			defer wg.Done()
			body(p)
		}()
	}
	wg.Wait()
}

// ForEach runs body(w, i) for every i ∈ [0, n) on at most Workers(workers)
// goroutines (through Parallel). A dealer goroutine hands the indices out in
// ascending order over an unbuffered channel, each to whichever goroutine
// asks first, so uneven items balance themselves; w ∈ [0, workers) names the
// goroutine making the call, so state indexed by w — a scratch workspace,
// counters — is private to it. Waiting for the dealer between items is also a
// scheduling point: it lets other goroutines on the same processors, such as
// a daemon's queries beside its index refresh, run between items. Claiming
// indices from an atomic counter instead, with no such point, let the refresh
// hold both processors of a 2-vCPU box: the web-edits workload lost 12 % of
// its query throughput (median of ten pairs, nine of them lower).
//
// Once a call fails no further index is dealt, and ForEach returns the error
// of the lowest failing i: every index below a failing one was dealt before
// it and runs to completion, so the error is the same on every run.
func ForEach(n, workers int, body func(w, i int) error) error {
	workers = min(Workers(workers), n)
	if workers <= 0 {
		return nil
	}
	jobs := make(chan int)
	var failed atomic.Bool
	go func() {
		defer close(jobs)
		for i := 0; i < n && !failed.Load(); i++ {
			jobs <- i
		}
	}()
	errAt, errs := make([]int, workers), make([]error, workers)
	Parallel(workers, func(w int) {
		for i := range jobs {
			// A goroutine is dealt ascending indices, so its first error is
			// its lowest.
			if err := body(w, i); err != nil && errs[w] == nil {
				errAt[w], errs[w] = i, err
				failed.Store(true)
			}
		}
	})
	var first error
	at := n
	for w, err := range errs {
		if err != nil && errAt[w] < at {
			first, at = err, errAt[w]
		}
	}
	return first
}
