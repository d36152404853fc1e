package vecmath

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"math/bits"
)

// Packed32 is a Sparse32 whose indices are stored as gap varints: the first
// index, then each difference minus one, each as a minimal-length unsigned
// LEB128. It is the index's form of the BCA states' R, W and S, whose rows
// are short runs of nearby node ids: most gaps fit in one byte where an int32
// takes four. Values stay one float32 per entry, so Val can alias a value
// slab as a Sparse32's does. The zero value is the empty row.
type Packed32 struct {
	Idx []byte
	Val []float32
}

// maxGapLen is the longest gap encoding Validate accepts: five LEB128 bytes
// carry 35 bits, enough for any gap between two int32 indices.
const maxGapLen = 5

// Pack32 encodes s, whose indices must be strictly ascending and
// non-negative (Sparse32.Validate). The result shares s.Val.
func Pack32(s Sparse32) Packed32 {
	size, next := 0, int64(0) // next: the smallest index the next entry can take
	for _, i := range s.Idx {
		size += 1 + (bits.Len64(uint64(int64(i)-next)|1)-1)/7
		next = int64(i) + 1
	}
	out := Packed32{Idx: make([]byte, 0, size), Val: s.Val}
	next = 0
	for _, i := range s.Idx {
		out.Idx = binary.AppendUvarint(out.Idx, uint64(int64(i)-next))
		next = int64(i) + 1
	}
	return out
}

// gap decodes the varint at b[at:] and returns it with the offset after it.
// The offset is at when b ends inside the varint and below at when the
// encoding is longer than its value needs or than maxGapLen. Most gaps take
// one byte, so each decoder reads that case itself and calls gap for the
// rest.
func gap(b []byte, at int) (g uint64, end int) {
	for i, c := range b[at:] {
		if i == maxGapLen {
			return 0, at - 1
		}
		if c < 0x80 {
			if c == 0 && i > 0 {
				// A last byte of zero adds nothing: a shorter encoding exists.
				return 0, at - 1
			}
			return g | uint64(c)<<(7*i), at + i + 1
		}
		g |= uint64(c&0x7f) << (7 * i)
	}
	return 0, at
}

// NNZ returns the number of stored entries.
func (p Packed32) NNZ() int { return len(p.Val) }

// L1 returns the sum of absolute values of the stored entries, in float64
// and in index order, as Sparse32.L1.
func (p Packed32) L1() float64 {
	var sum float64
	for _, v := range p.Val {
		sum += math.Abs(float64(v))
	}
	return sum
}

// Ids iterates over p's entries in index order, yielding each entry's
// position and index. p must be valid (Validate); a malformed row ends the
// iteration early.
func (p Packed32) Ids() iter.Seq2[int, int32] {
	return func(yield func(int, int32) bool) {
		b, next := p.Idx, uint64(0)
		for i, at := 0, 0; at < len(b); i++ {
			g, k := uint64(b[at]), at+1
			if g >= 0x80 {
				if g, k = gap(b, at); k <= at {
					return
				}
			}
			id := next + g
			if !yield(i, int32(id)) {
				return
			}
			at, next = k, id+1
		}
	}
}

// Widen returns p decoded, its values converted exactly to float64. p must be
// valid (Validate).
func (p Packed32) Widen() Sparse {
	out := Sparse{Idx: make([]int32, len(p.Val)), Val: make([]float64, len(p.Val))}
	at, next := 0, uint64(0)
	for i, v := range p.Val {
		g, k := uint64(p.Idx[at]), at+1
		if g >= 0x80 {
			if g, k = gap(p.Idx, at); k <= at {
				panic("vecmath: Widen of a malformed packed row")
			}
		}
		out.Idx[i] = int32(next + g)
		out.Val[i] = float64(v)
		at, next = k, next+g+1
	}
	return out
}

// Validate checks that p decodes to exactly NNZ strictly ascending indices in
// [0, n), each within int32, and that every varint is complete and minimal,
// so a valid row has one encoding, Pack32's.
func (p Packed32) Validate(n int) error {
	// Indices ascend, so only the last must be below limit. next is one past
	// the index decoded last; it is checked after every long gap, and the
	// one-byte gaps between add at most 128 each, so it cannot wrap.
	limit := uint64(max(0, min(n, math.MaxInt32+1)))
	next, count := uint64(0), 0
	for at := 0; at < len(p.Idx); {
		if at+8 <= len(p.Idx) {
			// Eight bytes at once: the one-byte gaps before the first byte
			// with its high bit set are summed in one go. Validating every
			// row is most of an mmap load's time.
			w := binary.LittleEndian.Uint64(p.Idx[at:])
			short := 8
			if hi := w & 0x8080808080808080; hi != 0 {
				short = bits.TrailingZeros64(hi) / 8
				w &= 1<<(8*short) - 1
			}
			next += byteSum(w) + uint64(short)
			at, count = at+short, count+short
			if short == 8 {
				continue
			}
		} else if c := p.Idx[at]; c < 0x80 {
			next += uint64(c) + 1
			at, count = at+1, count+1
			continue
		}
		g, k := gap(p.Idx, at)
		switch {
		case k == at:
			return fmt.Errorf("vecmath: packed row ends inside the varint of entry %d", count)
		case k < at:
			return fmt.Errorf("vecmath: packed row entry %d is not a minimal varint", count)
		}
		if next += g + 1; next > limit {
			return fmt.Errorf("vecmath: packed row entry %d decodes to index %d, outside [0,%d)", count, next-1, limit)
		}
		at, count = k, count+1
	}
	if next > limit {
		return fmt.Errorf("vecmath: packed row's last index, %d, is outside [0,%d)", next-1, limit)
	}
	if count != len(p.Val) {
		return fmt.Errorf("vecmath: packed row decodes to %d indices for %d values", count, len(p.Val))
	}
	return nil
}

// byteSum returns the sum of w's eight bytes, each below 0x80.
func byteSum(w uint64) uint64 {
	w = w&0x00ff00ff00ff00ff + w>>8&0x00ff00ff00ff00ff // four 16-bit sums, each ≤ 254
	return w * 0x0001000100010001 >> 48
}

// Bytes returns the payload footprint: the packed indices and 4 bytes per
// value.
func (p Packed32) Bytes() int64 {
	return int64(len(p.Idx)) + int64(len(p.Val))*4
}
