package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

type opKind uint8

const (
	opExact opKind = iota
	opApprox
	opEditAck     // POST /v1/edits, wait:false → 202 once the journal is fsynced
	opEditPublish // POST /v1/edits, wait:true  → 200 once the new epoch serves
)

// op is one request. Every op list is a pure function of (workload, seed,
// fixture), so two sides of a comparison send identical requests.
type op struct {
	kind  opKind
	path  string
	body  []byte           // edits JSON; nil for a GET
	q, k  int              // the query, kept for the correctness gate
	edits []graph.EdgeEdit // the batch behind body, kept for the traced replay
}

func exactOp(q, k int) op {
	return op{kind: opExact, path: fmt.Sprintf("/v1/reverse-topk?q=%d&k=%d", q, k), q: q, k: k}
}

func approxOp(q, k int) op {
	return op{kind: opApprox, path: fmt.Sprintf("/v1/reverse-topk?q=%d&k=%d&mode=approx&eps=0.1&delta=0", q, k), q: q, k: k}
}

// zipf draws ranks 0..n-1 with P(rank r) ∝ 1/(r+1)^s. math/rand's Zipf
// needs s > 1; the workloads use s = 1.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipf{cdf: cdf, rng: rng}
}

func (z *zipf) next() int {
	r := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// hubShare is the share of nodes, highest in-degree first, that no workload
// queries. A reverse top-k query on a hub returns thousands of nodes and
// costs seconds where the median query costs milliseconds (the cost climbs
// steeply over the top few percent by in-degree), so a single one landing in
// a four-second pass would decide every number of that pass.
const hubShare = 0.05

// queryNodes returns the nodes the workloads draw queries from, in the
// order rng gives them: every node outside the hubShare of highest
// in-degree.
func queryNodes(rng *rand.Rand, g *graph.Graph) []int {
	nodes := make([]int, g.N())
	for u := range nodes {
		nodes[u] = u
	}
	sort.SliceStable(nodes, func(a, b int) bool {
		return g.InDegree(graph.NodeID(nodes[a])) < g.InDegree(graph.NodeID(nodes[b]))
	})
	nodes = nodes[:len(nodes)-int(hubShare*float64(len(nodes)))]
	rng.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
	return nodes
}

// exactOps is one exact query per node.
func exactOps(nodes []int, k int) []op {
	ops := make([]op, len(nodes))
	for i, q := range nodes {
		ops[i] = exactOp(q, k)
	}
	return ops
}

// mixedOps is social-mixed: distinct nodes, alternating an exact query (k
// cycling 1, 10, K) with an approximate one (k=10, eps=0.1, delta=0).
func mixedOps(nodes []int, maxK int) []op {
	ks := []int{1, 10, maxK}
	ops := make([]op, len(nodes))
	for i, q := range nodes {
		if i%2 == 0 {
			ops[i] = exactOp(q, ks[(i/2)%len(ks)])
		} else {
			ops[i] = approxOp(q, 10)
		}
	}
	return ops
}

// hotKeys is the web-hot working set: distinct nodes with k from {5,10,20}.
func hotKeys(nodes []int, keys int) []op {
	ks := []int{5, 10, 20}
	ops := make([]op, keys)
	for i, q := range nodes[:keys] {
		ops[i] = exactOp(q, ks[i%len(ks)])
	}
	return ops
}

// zipfOps draws length requests Zipf(s=1) over the given keys.
func zipfOps(rng *rand.Rand, keys []op, length int) []op {
	z := newZipf(rng, len(keys), 1.0)
	ops := make([]op, length)
	for i := range ops {
		ops[i] = keys[z.next()]
	}
	return ops
}

// editBatches is the web-edits writer's edit list. Each batch inserts edges
// the graph does not have and, from the second batch on, removes a quarter
// as many edges that an earlier batch inserted — so every batch is valid
// when applied in order, and no original edge (hence no node's last
// out-edge) is ever removed.
func editBatches(rng *rand.Rand, g *graph.Graph, batches, perBatch int) [][]graph.EdgeEdit {
	type edge struct{ u, v graph.NodeID }
	n := g.N()
	live := map[edge]bool{} // inserted by an earlier batch and not yet removed
	var liveList []edge
	out := make([][]graph.EdgeEdit, batches)
	for b := range out {
		var edits []graph.EdgeEdit
		removes := 0
		if b > 0 {
			removes = perBatch / 4
		}
		for i := 0; i < removes && len(liveList) > 0; i++ {
			j := rng.Intn(len(liveList))
			e := liveList[j]
			liveList[j] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, e)
			edits = append(edits, graph.EdgeEdit{From: e.u, To: e.v, Remove: true})
		}
		var inserted []edge
		for len(edits) < perBatch {
			e := edge{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			if e.u == e.v || live[e] || g.EdgeWeight(e.u, e.v) != 0 {
				continue
			}
			live[e] = true
			inserted = append(inserted, e)
			edits = append(edits, graph.EdgeEdit{From: e.u, To: e.v})
		}
		// Edges inserted by this batch become removable only by a later one.
		liveList = append(liveList, inserted...)
		out[b] = edits
	}
	return out
}

// editOps turns edit batches into POST /v1/edits requests, alternating
// wait:false and wait:true.
func editOps(batches [][]graph.EdgeEdit, theta float64) ([]op, error) {
	type editJSON struct {
		From   graph.NodeID `json:"from"`
		To     graph.NodeID `json:"to"`
		Remove bool         `json:"remove,omitempty"`
	}
	type request struct {
		Edits []editJSON `json:"edits"`
		Theta float64    `json:"theta"`
		Wait  bool       `json:"wait,omitempty"`
	}
	ops := make([]op, len(batches))
	for b, edits := range batches {
		req := request{Theta: theta, Wait: b%2 == 1}
		for _, e := range edits {
			req.Edits = append(req.Edits, editJSON{From: e.From, To: e.To, Remove: e.Remove})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		kind := opEditAck
		if req.Wait {
			kind = opEditPublish
		}
		ops[b] = op{kind: kind, path: "/v1/edits", body: body, edits: edits}
	}
	return ops, nil
}
