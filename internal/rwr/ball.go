package rwr

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// One ball, two directions. A power iterate started from unit vectors is
// supported on the rows within t edges of them: PMPN's x ← Aᵀ·x walks in-edges,
// so a ToStepper keeps q's backward ball; the exact fallback's x ← A·x walks
// out-edges, so a slab (spmm.go) keeps the union of its origins' forward balls.
// Both sweep the ball's rows only — K-dash's "visit in BFS order" (Fujiwara et
// al., PAPERS.md) applied to rows — and hand the same buffers to their dense
// loop once the ball stops paying.

// ballDenseDivisor bounds the ball phase of ToStepper: it runs
// while q's backward ball holds fewer than n/ballDenseDivisor rows. Below
// that a sweep over the ball's rows reads at most an eighth of the out-CSR
// rows; past it the bookkeeping (an ascending row list, merged once per level)
// stops paying against the dense loop, which also shards across workers. The
// balls of real queries leave little to tune: on the benchmark's web fixture
// (n = 16 384, the 15 565 nodes its workloads query) 67 % of balls close, at
// 153 rows or fewer (p90 11), and the others pass n/8 between iterations 4
// and 27; on its social fixture 95 % pass it by iteration 4. Re-measured once
// the dense CSR sweep became the grouped gather (kernels.go), which made the
// dense side cheaper per row: on a replay of the web-cold workload's queries,
// handing over at n/4 was 5 % slower and at n/16 or n/32 within 1 %, so the
// hand-over stays at n/8.
const ballDenseDivisor = 8

// ball is the set of rows a power iterate started from its origins may hold a
// non-zero in, grown one neighbour level per iteration.
type ball struct {
	forward bool // grow by out-neighbours (x ← A·x), not in-neighbours (x ← Aᵀ·x)
	member  []bool
	// rows is the ball, ascending — the order the dense sweep visits rows in.
	rows []graph.NodeID
	// frontier is the level the last growBall added (the origins before any).
	frontier []graph.NodeID
}

func newBall(n int, forward bool, origins ...graph.NodeID) *ball {
	b := &ball{forward: forward, member: make([]bool, n)}
	for _, q := range origins {
		if !b.member[q] {
			b.member[q] = true
			b.rows = append(b.rows, q)
		}
	}
	slices.Sort(b.rows)
	b.frontier = slices.Clone(b.rows)
	return b
}

// list is the ball's rows, nil for a nil ball: a run past its ball phase.
func (b *ball) list() []graph.NodeID {
	if b == nil {
		return nil
	}
	return b.rows
}

// growBall adds the neighbours of b's last level, keeping b.rows
// ascending. It reports false, leaving b unspecified, once the ball holds
// limit rows or more. The ball only ever grows (the origins restart every
// iteration, so level t contains level t−1), which is why expanding the newest
// level alone reaches every row of the next one.
func growBall(g *graph.Graph, b *ball, limit int) bool {
	if len(b.rows) >= limit {
		return false
	}
	var fresh []graph.NodeID
	for _, v := range b.frontier {
		nbrs := g.InNeighbors(v)
		if b.forward {
			nbrs = g.OutNeighbors(v)
		}
		for _, u := range nbrs {
			if b.member[u] {
				continue
			}
			b.member[u] = true
			fresh = append(fresh, u)
			if len(b.rows)+len(fresh) >= limit {
				return false
			}
		}
	}
	slices.Sort(fresh)
	// Merge from the back: slot k = i+j+1 is always past the unread rows[:i+1].
	i, j := len(b.rows)-1, len(fresh)-1
	b.rows = append(b.rows, fresh...)
	for k := len(b.rows) - 1; j >= 0; k-- {
		if i >= 0 && b.rows[i] > fresh[j] {
			b.rows[k] = b.rows[i]
			i--
		} else {
			b.rows[k] = fresh[j]
			j--
		}
	}
	b.frontier = fresh
	return true
}

// ballResidual is the dense sweep's block-reduced L1 and L∞ differences
// (blockReduce) over two vectors that are +0 outside rows (ascending):
// per-block sums in row order, summed in block order, and the largest
// difference. The rows and blocks it skips would each add +0, which changes
// no partial sum and no maximum, so the results are bit-identical to
// reducing every block of the full vectors.
func ballResidual(x, y []float64, rows []graph.NodeID) (l1, linf float64) {
	var blockSum float64
	block := -1
	for _, u := range rows {
		if b := int(u) / graph.RowBlock; b != block {
			l1 += blockSum
			blockSum, block = 0, b
		}
		d := math.Abs(x[u] - y[u])
		blockSum += d
		linf = max(linf, d)
	}
	return l1 + blockSum, linf
}
