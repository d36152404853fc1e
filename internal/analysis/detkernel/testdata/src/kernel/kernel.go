// Package kernel is the detkernel fixture: the nondeterminism patterns the
// bit-identical kernel packages must never contain, next to the
// deterministic formulations they must use instead.
package kernel

import (
	"math/rand"
	"sort"
	"time"
)

func globalDraw() int {
	return rand.Intn(10) // want `global math/rand.Intn source`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand.Shuffle source`
}

func timeSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `seeds a rand source from time.Now` `seeds a rand source from time.Now`
}

// seeded is the blessed pattern: the seed arrives from the caller.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func mapAccum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation inside a map range`
	}
	return sum
}

// mapAccumSorted is the deterministic formulation: range the map only to
// collect keys, sort, accumulate over the slice.
func mapAccumSorted(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// mapLocalAccum is order-safe: the accumulator is declared inside the map
// range body, so no cross-iteration float state depends on map order.
func mapLocalAccum(m map[int][]float64) float64 {
	n := 0
	var best float64
	for _, vs := range m {
		var local float64
		for _, v := range vs {
			local += v
		}
		if local > best {
			best = local
		}
		n++
	}
	_ = n
	return best
}

func chanRangeAccum(ch chan float64) float64 {
	var sum float64
	for v := range ch {
		sum += v // want `float accumulation inside a channel range`
	}
	return sum
}

func chanRecvAccum(ch chan float64) float64 {
	var sum float64
	for i := 0; i < 4; i++ {
		sum += <-ch // want `float accumulation from a channel receive`
	}
	return sum
}

// chanIndexedMerge is the blessed block-reduce shape: receives carry their
// block index, partials land in a slice, and the final reduction runs in
// ascending block order.
func chanIndexedMerge(ch chan struct {
	Block int
	Sum   float64
}, blocks int) float64 {
	partial := make([]float64, blocks)
	for i := 0; i < blocks; i++ {
		p := <-ch
		partial[p.Block] = p.Sum
	}
	var sum float64
	for _, v := range partial {
		sum += v
	}
	return sum
}

func suppressed(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		//rtklint:ignore detkernel fixture: diagnostics-only total, never compared bitwise
		sum += v
	}
	return sum
}

// spawn starts goroutines of its own instead of fanning out through
// vecmath.Parallel or vecmath.ForEach.
func spawn(a, b func()) {
	go a()              // want `kernel starts a goroutine`
	go func() { b() }() // want `kernel starts a goroutine`
}
