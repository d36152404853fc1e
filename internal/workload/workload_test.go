package workload

import (
	"testing"

	"repro/internal/graph"
)

func TestQueries(t *testing.T) {
	qs, err := Queries(100, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 50 {
		t.Fatalf("len = %d", len(qs))
	}
	for _, q := range qs {
		if q < 0 || q >= 100 {
			t.Fatalf("query %d out of range", q)
		}
	}
	again, err := Queries(100, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if qs[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	other, err := Queries(100, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range qs {
		if qs[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical workloads")
	}
	if _, err := Queries(0, 5, 1); err == nil {
		t.Error("want n error")
	}
	if _, err := Queries(10, -1, 1); err == nil {
		t.Error("want count error")
	}
}

func TestAllNodes(t *testing.T) {
	qs := AllNodes(4)
	if len(qs) != 4 || qs[0] != 0 || qs[3] != 3 {
		t.Fatalf("AllNodes = %v", qs)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []graph.NodeID
		want float64
	}{
		{nil, nil, 1},
		{[]graph.NodeID{1, 2}, []graph.NodeID{1, 2}, 1},
		{[]graph.NodeID{1, 2}, []graph.NodeID{2, 3}, 1.0 / 3},
		{[]graph.NodeID{1}, nil, 0},
		{[]graph.NodeID{1, 1, 2}, []graph.NodeID{2, 2, 1}, 1}, // duplicates ignored
		{[]graph.NodeID{1, 2, 3, 4}, []graph.NodeID{1, 2}, 0.5},
	}
	for i, c := range cases {
		if got := Jaccard(c.a, c.b); got != c.want {
			t.Errorf("case %d: Jaccard = %g, want %g", i, got, c.want)
		}
		if got := Jaccard(c.b, c.a); got != c.want {
			t.Errorf("case %d: Jaccard not symmetric", i)
		}
	}
}
