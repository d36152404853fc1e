package shard

import (
	"testing"

	"repro/internal/lbindex"
	"repro/internal/oracle"
)

// TestRoundObserver wires the coordinator's PMPN observation hook and
// checks it sees every iteration the query stats report, without changing
// the answer.
func TestRoundObserver(t *testing.T) {
	tab := oracle.Family(t, "web")
	g, idx := tab.Graph, tab.Index(t)
	plain, err := NewInProc(g, []*lbindex.Index{idx}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.Query(7, 10)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewInProc(g, []*lbindex.Index{idx}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lastIter := 0
	c.RoundObserver = func(iter int, residual, tail float64) {
		if iter != lastIter+1 {
			t.Fatalf("observer saw iter %d after %d", iter, lastIter)
		}
		lastIter = iter
	}
	got, stats, err := c.Query(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lastIter != stats.PMPNIters {
		t.Fatalf("observer saw %d iterations, stats report %d", lastIter, stats.PMPNIters)
	}
	if len(got) != len(want) {
		t.Fatalf("observed query returned %d nodes, plain %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer differs at %d: %d != %d", i, got[i], want[i])
		}
	}
}
