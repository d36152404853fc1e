package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// OutLists is a CSR's out-adjacency in the stored form the index image
// (lbindex) keeps it in. Decode rebuilds the rest of the CSR — normalizers,
// in-mirror and degree order — in the pass Build and Apply end with, so none
// of it is stored.
//
//   - Degrees holds every row's out-degree as a minimal unsigned LEB128.
//   - Targets holds every row's targets, ascending, as gap varints: the first
//     target, then each difference minus one, each a minimal unsigned LEB128
//     (vecmath.Packed32's encoding).
//   - Weights holds one little-endian float64 per edge, in row order, and is
//     empty when the graph is unweighted.
//
// A valid encoding has exactly one form, so Decode then Encode returns the
// bytes decoded.
type OutLists struct {
	Degrees, Targets, Weights []byte
}

// maxVarintLen is the longest varint Decode accepts: five LEB128 bytes carry
// 35 bits, enough for any degree or gap of a graph with at most 2³¹ nodes.
const maxVarintLen = 5

// Encode returns g's out-lists in their stored form.
func (g *Graph) Encode() OutLists {
	var l OutLists
	l.Degrees = make([]byte, 0, g.n)
	l.Targets = make([]byte, 0, len(g.outEdges)+len(g.outEdges)/2)
	for u := 0; u < g.n; u++ {
		l.Degrees = binary.AppendUvarint(l.Degrees, uint64(g.outIndex[u+1]-g.outIndex[u]))
		next := int64(0) // the smallest target the next edge can have
		for _, v := range g.outEdges[g.outIndex[u]:g.outIndex[u+1]] {
			l.Targets = binary.AppendUvarint(l.Targets, uint64(int64(v)-next))
			next = int64(v) + 1
		}
	}
	if g.outWeights != nil {
		l.Weights = make([]byte, 8*len(g.outWeights))
		for e, w := range g.outWeights {
			binary.LittleEndian.PutUint64(l.Weights[8*e:], math.Float64bits(w))
		}
	}
	return l
}

// Digest returns the SHA-256 of g's stored form: the three sections'
// lengths, as u64s, which make the concatenation unambiguous, and then the
// sections. Two graphs share a digest exactly when their out-lists and
// weights are equal.
func (g *Graph) Digest() [32]byte {
	l := g.Encode()
	h := sha256.New()
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(l.Degrees)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(l.Targets)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(l.Weights)))
	h.Write(hdr[:])
	h.Write(l.Degrees)
	h.Write(l.Targets)
	h.Write(l.Weights)
	return [32]byte(h.Sum(nil))
}

// varint decodes the unsigned LEB128 at b[at:] and returns it with the
// offset after it; ok is false when b ends inside it, when it is longer than
// maxVarintLen, or when it is not minimal (a last byte of zero adds nothing,
// so a shorter encoding exists). Most degrees and gaps take one byte, which
// it reads itself.
func varint(b []byte, at int) (v uint64, end int, ok bool) {
	if at < len(b) && b[at] < 0x80 {
		return uint64(b[at]), at + 1, true
	}
	v, k := binary.Uvarint(b[at:])
	return v, at + k, k > 0 && k <= maxVarintLen && (k == 1 || b[at+k-1] != 0)
}

// Decode rebuilds the n-node graph whose out-lists l holds, validating every
// row: every varint complete and minimal, every row non-empty, its targets
// strictly ascending in [0, n), every weight finite and at least
// MinNormalWeight, and no byte left over. An edge count the Targets section
// is too short to hold is refused before the edges are allocated. The CSR is
// then completed in the pass Build ends with, so a decoded graph is
// reflect.DeepEqual to the one encoded.
func Decode(n int, l OutLists) (*Graph, error) {
	if n < 0 || n > math.MaxInt32+1 {
		return nil, fmt.Errorf("graph: implausible node count %d", n)
	}
	if len(l.Degrees) < n {
		// Every row's degree takes at least one byte.
		return nil, fmt.Errorf("graph: degree section holds %d bytes, too few for %d rows", len(l.Degrees), n)
	}
	outIndex := make([]int64, n+1)
	at := 0
	for u := 0; u < n; u++ {
		d, end, ok := varint(l.Degrees, at)
		switch {
		case !ok:
			return nil, fmt.Errorf("graph: degree of row %d is not a complete minimal varint", u)
		case d == 0:
			return nil, fmt.Errorf("graph: row %d has no out-edges", u)
		case d > uint64(n):
			return nil, fmt.Errorf("graph: row %d claims %d out-edges in a %d-node graph", u, d, n)
		}
		outIndex[u+1] = outIndex[u] + int64(d)
		at = end
	}
	if at != len(l.Degrees) {
		return nil, fmt.Errorf("graph: degree section has %d bytes after its %d rows", len(l.Degrees)-at, n)
	}
	m := outIndex[n]
	if m > int64(len(l.Targets)) {
		// Every target takes at least one byte.
		return nil, fmt.Errorf("graph: target section holds %d bytes, too few for %d edges", len(l.Targets), m)
	}
	if len(l.Weights) != 0 && int64(len(l.Weights)) != 8*m {
		return nil, fmt.Errorf("graph: weight section holds %d bytes, want 0 or %d for %d edges", len(l.Weights), 8*m, m)
	}
	outEdges := make([]NodeID, m)
	at = 0
	for u := 0; u < n; u++ {
		next := uint64(0) // the smallest target the next edge can have
		for e := outIndex[u]; e < outIndex[u+1]; e++ {
			gap, end, ok := varint(l.Targets, at)
			if !ok {
				return nil, fmt.Errorf("graph: target %d of row %d is not a complete minimal varint", e-outIndex[u], u)
			}
			if next += gap; next >= uint64(n) {
				return nil, fmt.Errorf("graph: row %d has a target at or past n = %d", u, n)
			}
			outEdges[e] = NodeID(next)
			at, next = end, next+1
		}
	}
	if at != len(l.Targets) {
		return nil, fmt.Errorf("graph: target section has %d bytes after its %d edges", len(l.Targets)-at, m)
	}
	var outWeights []float64
	if len(l.Weights) != 0 {
		outWeights = make([]float64, m)
		for e := range outWeights {
			w := math.Float64frombits(binary.LittleEndian.Uint64(l.Weights[8*e:]))
			if !(w >= MinNormalWeight) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: edge %d has weight %g, not a finite value of at least %g", e, w, MinNormalWeight)
			}
			outWeights[e] = w
		}
	}
	return newCSR(n, outIndex, outEdges, outWeights), nil
}

// Equal reports whether g and h are the same graph: the same node count,
// out-lists and weights (every other field derives from these). The
// weights compare bit for bit.
func (g *Graph) Equal(h *Graph) bool {
	if g == h {
		return true
	}
	if g == nil || h == nil || g.n != h.n || (g.outWeights == nil) != (h.outWeights == nil) {
		return false
	}
	return slices.Equal(g.outIndex, h.outIndex) && slices.Equal(g.outEdges, h.outEdges) &&
		slices.EqualFunc(g.outWeights, h.outWeights, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}
