package vecmath

import (
	"fmt"
	"math"
	"sort"
)

// Sparse is a sparse vector: parallel slices of strictly increasing indices
// and their values. The zero value is the empty vector. Sparse vectors hold
// the resumable per-node BCA state (R, W, S) while it is computed and
// refined; the index stores them as Packed32, and its hub columns as Sparse32.
type Sparse struct {
	Idx []int32
	Val []float64
}

// NNZ returns the number of stored entries.
func (s Sparse) NNZ() int { return len(s.Idx) }

// L1 returns the sum of absolute values of stored entries.
func (s Sparse) L1() float64 {
	var sum float64
	for _, v := range s.Val {
		if v < 0 {
			sum -= v
		} else {
			sum += v
		}
	}
	return sum
}

// Get returns the value at index i (0 when absent) using binary search.
func (s Sparse) Get(i int32) float64 {
	pos := sort.Search(len(s.Idx), func(j int) bool { return s.Idx[j] >= i })
	if pos < len(s.Idx) && s.Idx[pos] == i {
		return s.Val[pos]
	}
	return 0
}

// Clone returns a deep copy.
func (s Sparse) Clone() Sparse {
	out := Sparse{Idx: make([]int32, len(s.Idx)), Val: make([]float64, len(s.Val))}
	copy(out.Idx, s.Idx)
	copy(out.Val, s.Val)
	return out
}

// Validate checks the strict index ordering invariant.
func (s Sparse) Validate() error {
	return validateIdx(s.Idx, len(s.Val))
}

func validateIdx(idx []int32, nval int) error {
	if len(idx) != nval {
		return fmt.Errorf("vecmath: sparse idx/val length mismatch: %d vs %d", len(idx), nval)
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			return fmt.Errorf("vecmath: sparse indices not strictly increasing at %d", i)
		}
	}
	return nil
}

// Compact returns a copy of s without entries whose absolute value is below
// or equal to threshold. With threshold 0 it drops exact zeros only.
func (s Sparse) Compact(threshold float64) Sparse {
	out := Sparse{}
	for i, v := range s.Val {
		if v > threshold || v < -threshold {
			out.Idx = append(out.Idx, s.Idx[i])
			out.Val = append(out.Val, v)
		}
	}
	return out
}

// ScatterInto adds scale·s into the dense vector dst.
func (s Sparse) ScatterInto(dst []float64, scale float64) {
	for i, idx := range s.Idx {
		dst[idx] += scale * s.Val[i]
	}
}

// CopyInto writes the sparse entries into dst (dst is not cleared first).
func (s Sparse) CopyInto(dst []float64) {
	for i, idx := range s.Idx {
		dst[idx] = s.Val[i]
	}
}

// GatherSparse extracts the non-zero entries of a dense vector, skipping
// values with |v| ≤ threshold, producing a Sparse in index order.
func GatherSparse(x []float64, threshold float64) Sparse {
	var s Sparse
	for i, v := range x {
		if v > threshold || v < -threshold {
			s.Idx = append(s.Idx, int32(i))
			s.Val = append(s.Val, v)
		}
	}
	return s
}

// GatherSparseIndices extracts entries of the dense vector x at the given
// positions (which must be sorted ascending), skipping zeros. This is faster
// than GatherSparse when the caller tracked touched positions.
func GatherSparseIndices(x []float64, positions []int32, threshold float64) Sparse {
	var s Sparse
	for _, i := range positions {
		v := x[i]
		if v > threshold || v < -threshold {
			s.Idx = append(s.Idx, i)
			s.Val = append(s.Val, v)
		}
	}
	return s
}

// Bytes returns the approximate in-memory footprint of the sparse vector
// (payload only: 4 bytes per index + 8 bytes per value). Used for the index
// size accounting of Table 2.
func (s Sparse) Bytes() int64 {
	return int64(len(s.Idx))*4 + int64(len(s.Val))*8
}

// Sparse32 is a Sparse whose values are stored as float32, each rounded
// toward zero from the float64 it replaces (Round32). It is the index's form
// of the hub proximity columns at half the value bytes, and of the BCA
// states' R, W and S before their indices are packed (Packed32). Readers
// widen values to float64, which is exact, and sum them in stored order.
type Sparse32 struct {
	Idx []int32
	Val []float32
}

// RoundDown32 returns the float32 nearest v that is no farther from zero
// than v: float32(v) rounds to nearest, so a result that rose in magnitude is
// stepped back one ulp. For v in float32's normal range the loss is below
// 2⁻²³·|v|.
func RoundDown32(v float64) float32 {
	f := float32(v)
	if math.Abs(float64(f)) > math.Abs(v) {
		// One ulp toward zero. float32 is sign and magnitude, and f is not
		// zero, so that is its bit pattern minus one.
		f = math.Float32frombits(math.Float32bits(f) - 1)
	}
	return f
}

// Round32 rounds every value of s toward zero to float32 (RoundDown32),
// dropping the entries that round to zero, and returns the L1 mass the
// rounding removed. Each entry's loss is exact in float64 (it is the value's
// low bits); the losses are summed in index order. The result shares s.Idx
// when no entry is dropped.
func Round32(s Sparse) (out Sparse32, lost float64) {
	out = Sparse32{Idx: s.Idx, Val: make([]float32, len(s.Val))}
	zeros := 0
	for i, v := range s.Val {
		out.Val[i] = RoundDown32(v)
		lost += math.Abs(v) - math.Abs(float64(out.Val[i]))
		if out.Val[i] == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		return out, lost
	}
	idx, val := make([]int32, 0, len(s.Idx)-zeros), make([]float32, 0, len(s.Idx)-zeros)
	for i, f := range out.Val {
		if f != 0 {
			idx, val = append(idx, s.Idx[i]), append(val, f)
		}
	}
	return Sparse32{Idx: idx, Val: val}, lost
}

// NNZ returns the number of stored entries.
func (s Sparse32) NNZ() int { return len(s.Idx) }

// L1 returns the sum of absolute values of the stored entries, in float64
// and in index order.
func (s Sparse32) L1() float64 {
	var sum float64
	for _, v := range s.Val {
		sum += math.Abs(float64(v))
	}
	return sum
}

// Widen returns s with its values converted, exactly, to float64.
func (s Sparse32) Widen() Sparse {
	out := Sparse{Idx: make([]int32, len(s.Idx)), Val: make([]float64, len(s.Val))}
	copy(out.Idx, s.Idx)
	for i, v := range s.Val {
		out.Val[i] = float64(v)
	}
	return out
}

// ScatterInto adds scale·s into the dense vector dst.
func (s Sparse32) ScatterInto(dst []float64, scale float64) {
	for i, idx := range s.Idx {
		dst[idx] += scale * float64(s.Val[i])
	}
}

// Validate checks the strict index ordering invariant.
func (s Sparse32) Validate() error {
	return validateIdx(s.Idx, len(s.Val))
}

// Bytes returns the payload footprint: 4 bytes per index and 4 per value.
func (s Sparse32) Bytes() int64 {
	return int64(len(s.Idx))*4 + int64(len(s.Val))*4
}
