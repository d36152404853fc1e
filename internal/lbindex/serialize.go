package lbindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// indexMagicV1 opens an image in the retired format v1, which carried no
// checksum. Load and LoadFile recognise it only to refuse it by name.
const indexMagicV1 = "RTKLBIX1"

// ErrFormatV1 is what Load and LoadFile return for a format v1 image
// (LoadFile wraps it with the path).
var ErrFormatV1 = errors.New("lbindex: index format v1 (RTKLBIX1) is no longer readable; rebuild it with rtkindex")

type binWriter struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (b *binWriter) u8(v uint8) {
	if b.err != nil {
		return
	}
	b.err = b.w.WriteByte(v)
}

func (b *binWriter) u32(v uint32) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(b.buf[:4], v)
	_, b.err = b.w.Write(b.buf[:4])
}

func (b *binWriter) u64(v uint64) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(b.buf[:8], v)
	_, b.err = b.w.Write(b.buf[:8])
}

func (b *binWriter) i64(v int64)   { b.u64(uint64(v)) }
func (b *binWriter) f64(v float64) { b.u64(math.Float64bits(v)) }

func (b *binWriter) floats(xs []float64) {
	for _, v := range xs {
		b.f64(v)
	}
}

// maxPlausibleK bounds the K a Load will accept. The paper's K is 200; a
// larger claim in a header is far more likely corruption than a real index,
// and rejecting it keeps the per-node read bounded.
const maxPlausibleK = 1 << 20

// Load reads an index previously written by Save (format v2). It is safe on
// truncated or corrupt input: every quantity that later code indexes with is
// bounds-checked, allocation stays proportional to the input actually
// consumed, and any checksum mismatch fails fast, so a bad image yields an
// error — never a panic, a hang, or an index that violates its invariants.
// A format v1 image is refused with ErrFormatV1.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(8)
	if err != nil || len(magic) < 8 {
		return nil, fmt.Errorf("lbindex: reading magic: %w", err)
	}
	switch string(magic) {
	case indexMagicV1:
		return nil, ErrFormatV1
	case indexMagicV2:
		return loadV2Stream(br)
	default:
		return nil, fmt.Errorf("lbindex: bad magic %q", magic)
	}
}
