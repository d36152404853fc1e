package vecmath

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestL1Norm(t *testing.T) {
	if got := L1Norm([]float64{1, -2, 3}); got != 6 {
		t.Errorf("L1Norm = %g, want 6", got)
	}
	if got := L1Norm(nil); got != 0 {
		t.Errorf("L1Norm(nil) = %g, want 0", got)
	}
}

func TestL1Diff(t *testing.T) {
	if got := L1Diff([]float64{1, 2}, []float64{0, 4}); got != 3 {
		t.Errorf("L1Diff = %g, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic on length mismatch")
		}
	}()
	L1Diff([]float64{1}, []float64{1, 2})
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 5, 2}, []float64{1, 2, 4}); got != 3 {
		t.Errorf("MaxAbsDiff = %g, want 3", got)
	}
}

func TestZeroScaleClone(t *testing.T) {
	x := []float64{1, 2, 3}
	c := Clone(x)
	Scale(x, 2)
	if !reflect.DeepEqual(x, []float64{2, 4, 6}) {
		t.Errorf("Scale: %v", x)
	}
	if !reflect.DeepEqual(c, []float64{1, 2, 3}) {
		t.Errorf("Clone aliased: %v", c)
	}
	Zero(x)
	if L1Norm(x) != 0 {
		t.Errorf("Zero failed: %v", x)
	}
}

func TestAddScaled(t *testing.T) {
	dst := []float64{1, 1}
	AddScaled(dst, 2, []float64{3, 4})
	if !reflect.DeepEqual(dst, []float64{7, 9}) {
		t.Errorf("AddScaled = %v", dst)
	}
}

func TestTopKValues(t *testing.T) {
	x := []float64{0.1, 0.5, 0.3, 0.2}
	if got := TopKValues(x, 2); !reflect.DeepEqual(got, []float64{0.5, 0.3}) {
		t.Errorf("TopKValues = %v", got)
	}
	// Padding when k > len(x).
	if got := TopKValues([]float64{0.7}, 3); !reflect.DeepEqual(got, []float64{0.7, 0, 0}) {
		t.Errorf("TopKValues pad = %v", got)
	}
	if got := TopKValues(x, 0); got != nil {
		t.Errorf("TopKValues(0) = %v", got)
	}
}

func TestTopKValuesAgainstSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		got := TopKValues(x, k)
		sorted := Clone(x)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		for i := 0; i < k; i++ {
			want := 0.0
			if i < n {
				want = sorted[i]
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTopKEntries(t *testing.T) {
	x := []float64{0.1, 0.5, 0.3, 0.5, 0}
	got := TopKEntries(x, 3)
	want := []Entry{{1, 0.5}, {3, 0.5}, {2, 0.3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopKEntries = %v, want %v", got, want)
	}
	// Zeros excluded; result can be shorter than k.
	got = TopKEntries([]float64{0, 0, 0.2}, 3)
	if len(got) != 1 || got[0].Index != 2 {
		t.Errorf("TopKEntries zeros = %v", got)
	}
}

func TestTopKEntriesDeterministicTieBreak(t *testing.T) {
	x := []float64{0.5, 0.5, 0.5, 0.5}
	got := TopKEntries(x, 2)
	if got[0].Index != 0 || got[1].Index != 1 {
		t.Errorf("tie break wrong: %v", got)
	}
}

func TestKthLargest(t *testing.T) {
	x := []float64{0.4, 0.1, 0.9, 0.6}
	cases := []struct {
		k    int
		want float64
	}{{1, 0.9}, {2, 0.6}, {3, 0.4}, {4, 0.1}, {5, 0}}
	for _, c := range cases {
		if got := KthLargest(x, c.k); got != c.want {
			t.Errorf("KthLargest(k=%d) = %g, want %g", c.k, got, c.want)
		}
	}
	if !math.IsInf(KthLargest(x, 0), 1) {
		t.Error("KthLargest(0) should be +Inf")
	}
}

func TestIsSortedDescending(t *testing.T) {
	if !IsSortedDescending([]float64{3, 2, 2, 1}) {
		t.Error("want true")
	}
	if IsSortedDescending([]float64{1, 2}) {
		t.Error("want false")
	}
	if !IsSortedDescending(nil) {
		t.Error("empty is sorted")
	}
}

func TestSparseBasics(t *testing.T) {
	s := Sparse{Idx: []int32{1, 4, 9}, Val: []float64{0.5, -0.25, 0.125}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 3 {
		t.Errorf("NNZ = %d", s.NNZ())
	}
	if got := s.L1(); got != 0.875 {
		t.Errorf("L1 = %g", got)
	}
	if s.Get(4) != -0.25 || s.Get(5) != 0 {
		t.Errorf("Get wrong: %g %g", s.Get(4), s.Get(5))
	}
	c := s.Clone()
	c.Val[0] = 99
	if s.Val[0] == 99 {
		t.Error("Clone aliases storage")
	}
}

func TestSparseValidateErrors(t *testing.T) {
	if err := (Sparse{Idx: []int32{1}, Val: nil}).Validate(); err == nil {
		t.Error("want length mismatch error")
	}
	if err := (Sparse{Idx: []int32{2, 2}, Val: []float64{1, 1}}).Validate(); err == nil {
		t.Error("want ordering error")
	}
}

func TestSparseCompact(t *testing.T) {
	s := Sparse{Idx: []int32{0, 1, 2}, Val: []float64{1e-9, 0.5, -1e-9}}
	c := s.Compact(1e-6)
	if c.NNZ() != 1 || c.Idx[0] != 1 {
		t.Errorf("Compact = %+v", c)
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		x := make([]float64, n)
		for i := range x {
			if rng.Float64() < 0.3 {
				x[i] = rng.Float64()
			}
		}
		s := GatherSparse(x, 0)
		if s.Validate() != nil {
			return false
		}
		back := make([]float64, n)
		s.CopyInto(back)
		return L1Diff(x, back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScatterIntoScaled(t *testing.T) {
	s := Sparse{Idx: []int32{0, 2}, Val: []float64{1, 2}}
	dst := []float64{1, 1, 1}
	s.ScatterInto(dst, 0.5)
	if !reflect.DeepEqual(dst, []float64{1.5, 1, 2}) {
		t.Errorf("ScatterInto = %v", dst)
	}
}

func TestGatherSparseIndices(t *testing.T) {
	x := []float64{0.5, 0, 0.25, 0}
	s := GatherSparseIndices(x, []int32{0, 1, 2}, 0)
	if s.NNZ() != 2 || s.Get(0) != 0.5 || s.Get(2) != 0.25 {
		t.Errorf("GatherSparseIndices = %+v", s)
	}
}

func TestSparseBytes(t *testing.T) {
	s := Sparse{Idx: []int32{1, 2}, Val: []float64{1, 2}}
	if got := s.Bytes(); got != 24 {
		t.Errorf("Bytes = %d, want 24", got)
	}
}

// TestRound32RoundsTowardZero: every value is the largest float32 no farther
// from zero than its source, an entry that rounds to zero is dropped, and the
// reported loss is what rounding took off, exactly.
func TestRound32RoundsTowardZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := Sparse{Idx: []int32{0, 1, 2, 3, 4}, Val: []float64{0.15, 1, 1e-50, 0x1p-140 * 3, 1.0 / 3}}
	for i := int32(5); i < 200; i++ {
		src.Idx = append(src.Idx, i)
		src.Val = append(src.Val, rng.Float64()*math.Pow(10, -float64(rng.Intn(12))))
	}
	out, lost := Round32(src)
	if out.NNZ() != src.NNZ()-1 || out.Idx[2] != 3 {
		t.Fatalf("the entry 1e-50 rounds to zero and must go: %v", out.Idx[:4])
	}
	var want float64
	for i, v := range src.Val {
		f := RoundDown32(v)
		if float64(f) > v || float64(math.Nextafter32(f, float32(math.Inf(1)))) <= v {
			t.Fatalf("RoundDown32(%g) = %g, not the largest float32 at or below it", v, f)
		}
		if got := out.Widen().Get(src.Idx[i]); got != float64(f) {
			t.Fatalf("entry %d: Round32 stored %g, want %g", src.Idx[i], got, f)
		}
		want += v - float64(f)
	}
	if lost != want || lost <= 0 {
		t.Errorf("Round32 reports a loss of %g, want %g", lost, want)
	}
	if RoundDown32(-0.15) != -RoundDown32(0.15) {
		t.Error("RoundDown32 does not round a negative value toward zero")
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 7 [running]:").
func goid() int {
	buf := make([]byte, 64)
	f := bytes.Fields(buf[:runtime.Stack(buf, false)])
	id, err := strconv.Atoi(string(f[1]))
	if err != nil {
		panic(fmt.Sprintf("unexpected stack header %q", buf))
	}
	return id
}

func TestWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, runtime.GOMAXPROCS(0)}, {0, runtime.GOMAXPROCS(0)}, {1, 1}, {7, 7},
	} {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParallelRunsEveryPart(t *testing.T) {
	caller := goid()
	for _, parts := range []int{0, 1, 2, 5} {
		runs := make([]int, parts)
		ids := make([]int, parts)
		Parallel(parts, func(p int) {
			runs[p]++
			ids[p] = goid()
		})
		for p := range parts {
			if runs[p] != 1 {
				t.Errorf("parts=%d: part %d ran %d times", parts, p, runs[p])
			}
			// One part runs inline; two or more each get a goroutine, none
			// of them the caller's.
			if onCaller := ids[p] == caller; onCaller != (parts == 1) {
				t.Errorf("parts=%d: part %d on the caller's goroutine = %v", parts, p, onCaller)
			}
		}
	}
}

func TestForEach(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
		fail       []int // indices whose body fails
		wantAt     int   // the index the returned error names; -1 for none
	}{
		{n: 0, workers: 4, wantAt: -1},
		{n: 1, workers: 1, wantAt: -1},
		{n: 100, workers: 1, wantAt: -1},
		{n: 100, workers: 3, wantAt: -1},
		{n: 3, workers: 8, wantAt: -1},  // more workers than items
		{n: 50, workers: 0, wantAt: -1}, // ≤ 0 selects GOMAXPROCS
		{n: 50, workers: -2, wantAt: -1},
		{n: 100, workers: 4, fail: []int{0, 1, 2}, wantAt: 0},
		{n: 100, workers: 4, fail: []int{97, 41, 60}, wantAt: 41},
		{n: 10, workers: 1, fail: []int{9}, wantAt: 9},
	} {
		name := fmt.Sprintf("n=%d/workers=%d/fail=%v", tc.n, tc.workers, tc.fail)
		bound := min(Workers(tc.workers), tc.n) // w's range: [0, bound)
		fails := map[int]bool{}
		for _, i := range tc.fail {
			fails[i] = true
		}
		// Repeated, because which worker fails first varies run to run and
		// the returned error must not.
		for run := range 20 {
			visits := make([]atomic.Int32, tc.n)
			var badW atomic.Int32
			badW.Store(-1)
			err := ForEach(tc.n, tc.workers, func(w, i int) error {
				if w < 0 || w >= bound {
					badW.Store(int32(w))
				}
				visits[i].Add(1)
				if fails[i] {
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if w := badW.Load(); w >= 0 {
				t.Fatalf("%s run %d: worker %d outside [0,%d)", name, run, w, bound)
			}
			want := "<nil>"
			if tc.wantAt >= 0 {
				want = fmt.Sprintf("item %d", tc.wantAt)
			}
			if got := fmt.Sprint(err); got != want {
				t.Fatalf("%s run %d: error %s, want %s", name, run, got, want)
			}
			// Every index below the lowest failure (all of them, when none
			// fails) ran once; none ran twice.
			for i := range visits {
				if v := visits[i].Load(); v > 1 || (tc.wantAt < 0 || i < tc.wantAt) && v != 1 {
					t.Fatalf("%s run %d: index %d visited %d times", name, run, i, v)
				}
			}
		}
	}
}
