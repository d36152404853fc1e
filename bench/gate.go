package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/serve"
)

// tieGap is the |p_u(q) − kth(p_u)| below which the independent re-check
// declines to call a membership either way: the engine and a fresh power
// iteration may legitimately disagree inside the solver tolerance.
const tieGap = 1e-9

// gate accumulates the correctness checks of one run. Every check counts
// as attempted; every miss counts as failed and is described in misses.
type gate struct {
	attempted int
	failed    int
	misses    []string

	bruteforceMS []float64 // per oracle query, for the layer table
	recoveryS    float64   // web-edits: restart after SIGKILL → caught up
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		if len(g.misses) < 20 {
			g.misses = append(g.misses, fmt.Sprintf(format, args...))
		}
	}
}

// requests counts every request of a loop, failing the ones that did not
// come back 2xx with a whole body.
func (g *gate) requests(what string, ops []op, outs []outcome) {
	for _, o := range outs {
		g.check(o.ok, "%s %s: status %d", what, ops[o.idx].path, o.status)
	}
}

type queryBody struct {
	Query   int            `json:"query"`
	K       int            `json:"k"`
	Epoch   uint64         `json:"epoch"`
	Results []graph.NodeID `json:"results"`
	Maybe   []graph.NodeID `json:"maybe"`
}

func editWatermark(body []byte) (uint64, error) {
	var r struct {
		Watermark uint64 `json:"watermark"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("edit response %q: %w", body, err)
	}
	return r.Watermark, nil
}

// oracle is gate (a): a small graph served by the real daemon, every answer
// compared with the brute-force method of the paper's §3.
func (h *harness) oracle(gt *gate) error {
	dir := filepath.Join(h.workDir, "oracle")
	fx, err := buildFixture(h.tools, h.sc.oracle(), h.sc.maxK, h.seed, dir) // the oracle graph does follow the seed: nothing is timed on it
	if err != nil {
		return err
	}
	g, err := loadGraph(fx.graphPath)
	if err != nil {
		return err
	}
	d, err := startDaemon(h.client, h.tools.serve, "-graph", fx.graphPath, "-index", fx.indexPath, "-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer d.kill()
	rng := rand.New(rand.NewSource(h.seed*1000 + 900))
	ks := []int{1, h.sc.maxK, 10, 5, 20}
	for i := 0; i < h.sc.oraclePairs; i++ {
		q, k := rng.Intn(g.N()), ks[i%len(ks)]
		body, status, err := get(h.client, d.base+exactOp(q, k).path)
		if err != nil || status != 200 {
			gt.check(false, "oracle q=%d k=%d: status %d err %v", q, k, status, err)
			continue
		}
		var got queryBody
		if err := json.Unmarshal(body, &got); err != nil {
			gt.check(false, "oracle q=%d k=%d: %v", q, k, err)
			continue
		}
		t := time.Now()
		want, err := core.BruteForce(g, graph.NodeID(q), k, rwr.DefaultParams(), 0)
		if err != nil {
			return err
		}
		gt.bruteforceMS = append(gt.bruteforceMS, float64(time.Since(t))/1e6)
		same := slices.Equal(got.Results, want)
		if !same {
			if same, err = equalUpToTies(g, graph.NodeID(q), k, got.Results, want); err != nil {
				return err
			}
		}
		gt.check(same, "oracle q=%d k=%d: served %v, brute force %v", q, k, got.Results, want)
	}
	return nil
}

// equalUpToTies reports whether two answers to one query differ only in
// nodes u whose p_u(q) lies within tieGap of u's k-th largest proximity.
// Both solvers stop at a residual of 1e-10, so on such a node either answer
// is right. Oracle graphs follow the seed, and some have such a node: seed
// 105's has one (node 680 for q=835, k=32, gap −2.4e-11).
func equalUpToTies(g *graph.Graph, q graph.NodeID, k int, a, b []graph.NodeID) (bool, error) {
	in := map[graph.NodeID]int{}
	for _, u := range a {
		in[u]++
	}
	for _, u := range b {
		in[u]--
	}
	for u, d := range in {
		if d == 0 {
			continue
		}
		pu, err := rwr.ProximityVector(g, u, rwr.DefaultParams())
		if err != nil {
			return false, err
		}
		if math.Abs(pu.Vector[q]-kthLargest(pu.Vector, k)) >= tieGap {
			return false, nil
		}
	}
	return true, nil
}

// servedAnswer is one answer the daemon gave during the run.
type servedAnswer struct {
	o    op
	body []byte
}

// sampleAnswers picks up to n of the kept bodies of one kind, seeded.
func sampleAnswers(rng *rand.Rand, ops []op, bodies map[int][]byte, kind opKind, n int) []servedAnswer {
	var idxs []int
	for i := range bodies {
		if ops[i].kind == kind {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	rng.Shuffle(len(idxs), func(a, b int) { idxs[a], idxs[b] = idxs[b], idxs[a] })
	if len(idxs) > n {
		idxs = idxs[:n]
	}
	out := make([]servedAnswer, len(idxs))
	for j, i := range idxs {
		out[j] = servedAnswer{ops[i], bodies[i]}
	}
	return out
}

// served is gate (b): answers the daemon gave are recomputed in this
// process from the same files, byte for byte, and a few of them are then
// re-derived without the index at all — one forward power iteration per
// node checked, which is the definition of membership.
func (h *harness) served(gt *gate, p *pass, answers []servedAnswer) error {
	g, err := loadGraph(p.fx.graphPath)
	if err != nil {
		return err
	}
	idx, err := lbindex.LoadFile(p.fx.indexPath, lbindex.LoadOptions{Mmap: true})
	if err != nil {
		return err
	}
	view, err := core.NewView(g, idx)
	if err != nil {
		return err
	}
	params := rwr.DefaultParams()
	rng := rand.New(rand.NewSource(h.seed*1000 + 901))
	for i, a := range answers {
		q := graph.NodeID(a.o.q)
		results, _, err := view.Query(q, a.o.k, 0)
		if err != nil {
			return err
		}
		if results == nil {
			results = []graph.NodeID{}
		}
		want, err := json.Marshal(serve.QueryResponse{Query: q, K: a.o.k, Epoch: 1, Count: len(results), Results: results})
		if err != nil {
			return err
		}
		gt.check(bytes.Equal(a.body, want), "%s: served %s, in-process %s", a.o.path, a.body, want)
		if i >= h.sc.gateDeep {
			continue
		}

		pq, err := rwr.ProximityTo(g, q, params)
		if err != nil {
			return err
		}
		member := make(map[graph.NodeID]bool, len(results))
		for _, u := range results {
			member[u] = true
		}
		in := append([]graph.NodeID(nil), results...)
		rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		var out []graph.NodeID
		for u := 0; u < g.N(); u++ {
			if !member[graph.NodeID(u)] {
				out = append(out, graph.NodeID(u))
			}
		}
		sort.Slice(out, func(a, b int) bool { return pq.Vector[out[a]] > pq.Vector[out[b]] })
		for _, set := range [][]graph.NodeID{in, out} {
			for _, u := range set[:min(len(set), h.sc.gateDeepEach)] {
				pu, err := rwr.ProximityVector(g, u, params)
				if err != nil {
					return err
				}
				gap := pu.Vector[q] - kthLargest(pu.Vector, a.o.k)
				if math.Abs(gap) < tieGap {
					continue
				}
				gt.check((gap > 0) == member[u], "%s: node %d served as member=%v but p_u(q) − kth = %g", a.o.path, u, member[u], gap)
			}
		}
	}
	return nil
}

// approx is gate (c): guaranteed ⊆ exact ⊆ guaranteed ∪ maybe, the exact
// answer asked of the same daemon.
func (h *harness) approx(gt *gate, d *daemon, answers []servedAnswer) {
	for _, a := range answers {
		var ap, ex queryBody
		body, status, err := get(h.client, d.base+exactOp(a.o.q, a.o.k).path)
		if err == nil && status == 200 {
			err = json.Unmarshal(body, &ex)
		}
		if err == nil {
			err = json.Unmarshal(a.body, &ap)
		}
		if err != nil || status != 200 {
			gt.check(false, "%s: exact answer unavailable: status %d err %v", a.o.path, status, err)
			continue
		}
		exact := map[graph.NodeID]bool{}
		for _, u := range ex.Results {
			exact[u] = true
		}
		allowed := map[graph.NodeID]bool{}
		ok := true
		for _, u := range ap.Results {
			allowed[u] = true
			ok = ok && exact[u]
		}
		for _, u := range ap.Maybe {
			allowed[u] = true
		}
		for _, u := range ex.Results {
			ok = ok && allowed[u]
		}
		gt.check(ok, "%s: guaranteed %v maybe %v do not bracket exact %v", a.o.path, ap.Results, ap.Maybe, ex.Results)
	}
}

var epochField = regexp.MustCompile(`"epoch":\d+`)

// recovery is gate (d), run on the last web-edits pass once every
// acknowledged batch is applied: read some answers, SIGKILL the daemon,
// restart it on the same journal and checkpoint directory, and require the
// watermark back and the same answers. The epoch counter restarts with the
// process, so it is masked before comparing. SIGKILL leaves the operating
// system's page cache intact: this checks a process crash, not power loss.
func (h *harness) recovery(gt *gate, w workload, p *pass, hot []op) error {
	n := min(len(hot), h.sc.gateRecovery)
	before := make([][]byte, n)
	for i, o := range hot[:n] {
		body, status, err := get(h.client, p.d.base+o.path)
		if err != nil || status != 200 {
			return fmt.Errorf("pre-kill %s: status %d err %v", o.path, status, err)
		}
		before[i] = body
	}
	p.d.kill()
	p.d = nil

	begin := time.Now()
	d, err := startDaemon(h.client, h.tools.serve, h.serveArgs(w, p.fx, p.dir)...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer d.kill()
	st, err := d.waitApplied(h.client, p.acked, 60*time.Second)
	gt.recoveryS = time.Since(begin).Seconds()
	gt.check(err == nil, "after SIGKILL: %v (acknowledged watermark %d)", err, p.acked)
	h.logf("  recovery: %.3f s, applied_watermark %d (acked %d), %d batches replayed", gt.recoveryS, st.AppliedWatermark, p.acked, st.ReplayedBatches)
	for i, o := range hot[:n] {
		body, status, err := get(h.client, d.base+o.path)
		same := err == nil && status == 200 &&
			bytes.Equal(epochField.ReplaceAll(body, nil), epochField.ReplaceAll(before[i], nil))
		gt.check(same, "%s after recovery: %s (status %d err %v), before the kill: %s", o.path, body, status, err, before[i])
	}
	return nil
}
