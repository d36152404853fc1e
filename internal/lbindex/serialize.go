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

// indexMagicV2 opens an image in the retired format v2, whose sparse values
// were float64. Load and LoadFile recognise it only to refuse it by name.
const indexMagicV2 = "RTKLBIX2"

// ErrFormatV2 is what Load and LoadFile return for a format v2 image — an
// index or a checkpoint written before the sparse values were stored as
// float32 (LoadFile wraps it with the path).
var ErrFormatV2 = errors.New("lbindex: index format v2 (RTKLBIX2) is no longer readable; rebuild it with rtkindex")

// indexMagicV3 opens an image in the retired format v3, whose state indices
// were u32. Load and LoadFile recognise it only to refuse it by name.
const indexMagicV3 = "RTKLBIX3"

// ErrFormatV3 is what Load and LoadFile return for a format v3 image — an
// index or a checkpoint written before the states' indices were stored as gap
// varints (LoadFile wraps it with the path).
var ErrFormatV3 = errors.New("lbindex: index format v3 (RTKLBIX3) is no longer readable; rebuild it with rtkindex")

// indexMagicV4 opens an image in the retired format v4, which did not store
// its graph. Load and LoadFile recognise it only to refuse it by name.
const indexMagicV4 = "RTKLBIX4"

// ErrFormatV4 is what Load and LoadFile return for a format v4 image — an
// index or a checkpoint written before the index stored the graph it was
// built on, relabeled ones included (LoadFile wraps it with the path).
var ErrFormatV4 = errors.New("lbindex: index format v4 (RTKLBIX4) stores no graph and is no longer readable; rebuild it with rtkindex")

// retiredFormat returns the error naming the retired format a magic opens,
// or nil.
func retiredFormat(magic string) error {
	switch magic {
	case indexMagicV1:
		return ErrFormatV1
	case indexMagicV2:
		return ErrFormatV2
	case indexMagicV3:
		return ErrFormatV3
	case indexMagicV4:
		return ErrFormatV4
	}
	return nil
}

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

func (b *binWriter) bytes(xs []byte) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(xs)
}

func (b *binWriter) floats32(xs []float32) {
	for _, v := range xs {
		b.u32(math.Float32bits(v))
	}
}

// maxPlausibleK bounds the K a Load will accept. The paper's K is 200; a
// larger claim in a header is far more likely corruption than a real index,
// and rejecting it keeps the per-node read bounded.
const maxPlausibleK = 1 << 20

// Load reads an index previously written by Save (format v5). It is safe on
// truncated or corrupt input: every quantity that later code indexes with is
// bounds-checked, allocation stays proportional to the input actually
// consumed, and any checksum mismatch fails fast, so a bad image yields an
// error — never a panic, a hang, or an index that violates its invariants.
// A format v1, v2, v3 or v4 image is refused with ErrFormatV1, ErrFormatV2,
// ErrFormatV3 or ErrFormatV4.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(8)
	if err != nil || len(magic) < 8 {
		return nil, fmt.Errorf("lbindex: reading magic: %w", err)
	}
	if err := retiredFormat(string(magic)); err != nil {
		return nil, err
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("lbindex: bad magic %q", magic)
	}
	return loadV2Stream(br)
}
