package lbindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/partition"
	"repro/internal/vecmath"
)

// Index format v4 ("RTKLBIX4"). Little-endian throughout, designed so a
// loader can serve every large array zero-copy out of an mmap'd file. It is
// format v2's section layout (hence the v2 names below) with the four sparse
// value slabs — hub columns and the states' R, W and S — stored as f32 instead
// of f64 (v3), and the states' R, W and S indices stored as gap varints
// (vecmath.Packed32) instead of u32, each kind with a u64 byte-offset table
// beside its entry-offset table (v4); a v2 or v3 image is refused with
// ErrFormatV2 or ErrFormatV3.
//
//	preamble (32 B):
//	  0  magic    "RTKLBIX4"
//	  8  fileSize u64   total image length
//	  16 nsec     u32   number of sections (= v2NumSections)
//	  20 tableCRC u32   CRC32C of the section table
//	  24 fileCRC  u32   CRC32C of the whole image except this field
//	  28 pad      u32   zero
//	section table (nsec × 24 B at offset 32):
//	  id u32, crc u32 (CRC32C of the payload), off u64, len u64
//	payload sections, in table order, each starting 8-byte aligned.
//
// Sections are flat slabs: per-hub and per-state sparse vectors are
// concatenated into one index slab + one f32 value slab, with a u64
// prefix-sum offset table giving each row's entry boundaries. The hub
// columns' index slab is u32. Each state kind's is bytes — every row its
// first index, then each gap minus one, as minimal unsigned LEB128 — with a
// second u64 prefix-sum table giving each row's byte boundaries, so a row is
// found without decoding the rows before it. p̂ is one dense [n×K]f64 slab,
// and ‖r‖₁, the hubs' exact top-K and dropped mass are f64.
// Node tags are implicit: a node is a state node iff it is not a hub. A
// folded state (Index.summarize) is an ordinary state row whose R range holds
// only the entries at or above η and whose ‖r‖₁ exceeds their sum, and a
// summarized one (bca.State.Summarized) has empty R and W ranges and a
// positive ‖r‖₁: neither needs a section, tag or magic of its own.
//
// SHARD SLICES use the same container with three extra sections (nsec =
// v2NumSectionsSharded): the partition-map fields (a strategy slot, P, shard
// id, a retired zero slot, range bounds) and the owned rows, which restate the
// shard's range lo..hi. In a shard image the meta node count n stays GLOBAL
// and the hub sections still describe the full hub matrix (every shard
// refines against it), but the state slabs cover only the owned non-hub rows
// and the p̂ slab only the owned rows, ascending — a P-way sharding therefore
// costs ≈ 1× the full index on disk in total, not P×. The strategy slot is
// written as 2; a slice stored with 1 (the removed range partitioner's) loads
// by its stored bounds like any other, and one stored with 0, the removed
// hash partitioner's, is refused with partition.ErrHash. The meta section's hub-scheme and greedy-seed slots are
// retired too: written as zero, ignored on read. A section's id is its table
// position. An image with
// one section more than either count (23 or 26) was written with the
// removed rtkindex -relabel flag and is refused with ErrRelabeled.
//
// Every byte of the image except the fileCRC field itself is covered by
// fileCRC, so any single-byte corruption is detected (the fileCRC field is
// self-checking: corrupting it breaks the comparison). Per-section CRCs
// exist to localize the damage in error messages and are all covered by
// fileCRC too.
const indexMagicV4 = "RTKLBIX4"

// Section identifiers, in file order.
const (
	secMeta = iota
	secHubIDs
	secHubTopK
	secHubDropped
	secHubColOff
	secHubColIdx
	secHubColVal
	secStateT
	secStateRNorm
	secStateROff
	secStateRIdxOff
	secStateRIdx
	secStateRVal
	secStateWOff
	secStateWIdxOff
	secStateWIdx
	secStateWVal
	secStateSOff
	secStateSIdxOff
	secStateSIdx
	secStateSVal
	secPhat
	v2NumSections
)

// Shard-slice sections, appended after the full set.
const (
	secPartMeta = v2NumSections + iota
	secPartBounds
	secPartRows
	v2NumSectionsSharded
)

// validNsec reports whether nsec is one of the two section counts a v4
// image can carry.
func validNsec(nsec int) bool {
	return nsec == v2NumSections || nsec == v2NumSectionsSharded
}

// shardedNsec reports whether nsec implies the shard-slice sections.
func shardedNsec(nsec int) bool { return nsec == v2NumSectionsSharded }

const (
	v2PreambleSize = 32
	v2TableEntry   = 24
	v2HeaderEnd    = v2PreambleSize + v2NumSections*v2TableEntry
	// v2MetaSize is the meta-section length: counts, options, the refinement
	// counter and the u64 edit-journal watermark at [104,112).
	v2MetaSize     = 112
	v2PartMetaSize = 24
	// maxV2FileSize bounds the image length a loader will believe; anything
	// larger is corruption (and would be rejected by the CRC anyway, but the
	// bound keeps speculative work proportional to plausible input).
	maxV2FileSize = 1 << 40
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// v2HeaderEndOf returns the first payload offset of an image with nsec
// sections (v2HeaderEnd for full images, larger for shard slices).
func v2HeaderEndOf(nsec int) int { return v2PreambleSize + nsec*v2TableEntry }

// hostLittleEndian reports whether float64/float32/int32 slabs can be aliased
// directly; on a big-endian host the loaders fall back to copying decode.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignUp8 rounds an offset up to the next 8-byte boundary.
func alignUp8(x int) int { return (x + 7) &^ 7 }

// alignedBytes allocates a byte slice whose backing array is 8-byte
// aligned, so slabs at 8-aligned offsets can be aliased in place.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// Mapping owns one mmap'd index image. Every Index sharing the mapping
// (the loaded index and all its Clones) holds a reference; the final
// release — triggered by a GC cleanup when the last such Index becomes
// unreachable, e.g. when the serving snapshot store drops its last snapshot
// over the file — unmaps the image.
type Mapping struct {
	data []byte
	refs atomic.Int64
}

func (m *Mapping) retain() { m.refs.Add(1) }

func (m *Mapping) release() {
	if m.refs.Add(-1) == 0 {
		m.unmap()
	}
}

// setBacking records the mapping an index's rows alias and arranges for the
// reference to be dropped when the index is garbage collected.
func (idx *Index) setBacking(m *Mapping) {
	if m == nil {
		return
	}
	idx.backing = m
	m.retain()
	runtime.AddCleanup(idx, func(mm *Mapping) { mm.release() }, m)
}

// MmapBacked reports whether this index serves its rows zero-copy from an
// mmap'd file. Mmap-backed rows are read-only: every mutation path
// (Commit, CommitHub, hub rebuilds) replaces row pointers wholesale, which
// is the same copy-on-write discipline Clone relies on.
func (idx *Index) MmapBacked() bool { return idx.backing != nil }

// LoadOptions configures LoadFile.
type LoadOptions struct {
	// Mmap serves the image zero-copy from the mapped file. Off (or on an
	// unsupported platform / big-endian host) the file is read into the
	// heap instead — the portable escape hatch behind the CLIs' -mmap=off.
	Mmap bool
}

// ParseMmapMode decodes the CLIs' -mmap escape-hatch flag ("on" or "off")
// into the LoadOptions.Mmap value, so every front end accepts the same
// values with the same error.
func ParseMmapMode(mode string) (bool, error) {
	switch mode {
	case "on":
		return true, nil
	case "off":
		return false, nil
	default:
		return false, fmt.Errorf("-mmap must be on or off, got %q", mode)
	}
}

// LoadFile opens an index file by path. The file loads via mmap when
// opts.Mmap is set (falling back to a heap read where mmap is unavailable);
// heap loads go through Load. The mmap fast path verifies the header, table
// and whole-file CRC32C plus all structural invariants (section bounds,
// offset-table monotonicity, every packed row's varints and index ranges)
// but skips the per-value scans (finiteness, ordering, ink conservation)
// that the heap loader performs — the checksum already guarantees the bytes
// are exactly what Save wrote. Load files from untrusted sources with Mmap
// off. A format v1, v2 or v3 file is refused with ErrFormatV1, ErrFormatV2
// or ErrFormatV3, a relabeled one with ErrRelabeled and a hash-partitioned
// shard slice with partition.ErrHash, on either path. Every error names the
// file.
func LoadFile(path string, opts LoadOptions) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	idx, err := loadFile(f, opts)
	var pe *fs.PathError
	if err != nil && !errors.As(err, &pe) {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return idx, err
}

// loadFile is LoadFile on the opened file; its errors that do not carry the
// path already (a *fs.PathError does) are LoadFile's to name it in.
func loadFile(f *os.File, opts LoadOptions) (*Index, error) {
	var magic [8]byte
	k, _ := io.ReadFull(f, magic[:]) // a short or failed read is Load's to report
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if string(magic[:k]) != indexMagicV4 || !opts.Mmap || !mmapSupported || !hostLittleEndian {
		// A heap load, or not a v4 image (a retired format, too short to
		// tell, unknown magic): the stream loader reads it or gives the real
		// error.
		return Load(f)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() > maxV2FileSize || st.Size() > math.MaxInt {
		return nil, fmt.Errorf("lbindex: index file is implausibly large (%d bytes)", st.Size())
	}
	m, err := mmapFile(f, int(st.Size()))
	if err != nil {
		// mmap refused (exotic filesystem, empty file): portable fallback.
		return Load(f)
	}
	idx, err := parseV2(m.data, false)
	if err != nil {
		m.unmap()
		return nil, err
	}
	idx.setBacking(m)
	return idx, nil
}

// Save writes the index in format v4, streaming: memory stays O(buffer)
// regardless of index size. The checksums in the preamble cover the whole
// payload, so the body is generated three times — once per section for the
// section CRCs, once for the file CRC, once into w — which trades a little
// encode CPU for never materializing a file-sized image. Save only reads, so
// it may run on a shared index beside any number of queries; like every
// reader it must not overlap that index's writer (see Index).
func (idx *Index) Save(w io.Writer) error {
	e, err := idx.newV2Emitter()
	if err != nil {
		return err
	}
	secCRC := make([]uint32, e.nsec)
	for s := 0; s < e.nsec; s++ {
		h := crc32.New(castagnoli)
		bw := &binWriter{w: bufio.NewWriterSize(h, 1<<16)}
		e.emitSection(s, bw)
		if bw.err != nil {
			return bw.err
		}
		if err := bw.w.Flush(); err != nil {
			return err
		}
		secCRC[s] = h.Sum32()
	}
	header := e.buildHeader(secCRC)
	fh := crc32.New(castagnoli)
	fh.Write(header[:24])
	fh.Write(header[28:])
	if err := e.emitBody(fh); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(header[24:28], fh.Sum32())
	if _, err := w.Write(header); err != nil {
		return err
	}
	return e.emitBody(w)
}

// SaveFile writes the index to path atomically: the image goes to a
// sibling temp file first and lands by rename. The rename discipline is
// load-bearing for mmap serving — rewriting an index file in place would
// mutate live read-only mappings of the old image.
func (idx *Index) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := idx.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// v2emitter holds the precomputed layout of one consistent index snapshot
// and can stream any section (or the whole post-header body) repeatedly.
type v2emitter struct {
	idx     *Index
	hubIDs  []graph.NodeID
	cols    []vecmath.Sparse32
	topK    [][]float64
	dropped []float64
	// nsec is v2NumSections for full images, v2NumSectionsSharded for
	// shard slices; [lo, hi) is the stored row range (Index.Rows) and
	// numStates the count of serialized states (rows that are not hubs).
	nsec      int
	lo, hi    int
	numStates int
	// watermark is snapshotted once at emitter construction: the body is
	// streamed three times (section CRCs, file CRC, output), and a value
	// read per pass could change between passes and tear the checksums.
	watermark uint64
	lens      [v2NumSectionsSharded]int
	offs      [v2NumSectionsSharded]int
	fileSize  int
}

// eachRow visits the stored rows in serialization order.
func (e *v2emitter) eachRow(f func(u graph.NodeID)) {
	for u := e.lo; u < e.hi; u++ {
		f(graph.NodeID(u))
	}
}

func (idx *Index) newV2Emitter() (*v2emitter, error) {
	hm := idx.hubs
	n, hubIDs, cols, topK, dropped, omega := hm.Parts()
	if n != idx.n {
		return nil, fmt.Errorf("lbindex: hub matrix sized for %d nodes, index has %d", n, idx.n)
	}
	if omega != idx.opts.Omega {
		// The options block is what Load rebuilds the matrix from.
		return nil, fmt.Errorf("lbindex: hub matrix omega %g != options omega %g", omega, idx.opts.Omega)
	}
	o := idx.opts
	hubCount := len(hubIDs)

	e := &v2emitter{idx: idx, hubIDs: hubIDs, cols: cols, topK: topK, dropped: dropped, nsec: v2NumSections, watermark: idx.watermark.Load()}
	e.lo, e.hi = idx.Rows()
	c := v2Counts{hubs: hubCount, k: o.K, rows: e.hi - e.lo}
	if idx.part != nil {
		e.nsec = v2NumSectionsSharded
		c.shards = idx.part.P()
	}
	for _, col := range cols {
		c.colNNZ += col.NNZ()
	}
	var rowErr error
	e.eachRow(func(u graph.NodeID) {
		if rowErr != nil {
			return
		}
		st, phatU := idx.states[u], idx.phat[u]
		if st == nil {
			if !hm.IsHub(u) {
				rowErr = fmt.Errorf("lbindex: node %d has no committed state (commit new origins before saving)", u)
			} else if phatU == nil {
				rowErr = fmt.Errorf("lbindex: hub node %d has no p̂ column", u)
			}
			return
		}
		if len(phatU) != o.K {
			rowErr = fmt.Errorf("lbindex: node %d p̂ column has %d entries, want K=%d", u, len(phatU), o.K)
			return
		}
		e.numStates++
		c.rNNZ += st.R.NNZ()
		c.wNNZ += st.W.NNZ()
		c.sNNZ += st.S.NNZ()
		c.rBytes += len(st.R.Idx)
		c.wBytes += len(st.W.Idx)
		c.sBytes += len(st.S.Idx)
	})
	if rowErr != nil {
		return nil, rowErr
	}
	c.states = e.numStates
	e.lens = c.sectionLens()
	pos := v2HeaderEndOf(e.nsec)
	for s := 0; s < e.nsec; s++ {
		pos = alignUp8(pos)
		e.offs[s] = pos
		pos += e.lens[s]
	}
	e.fileSize = alignUp8(pos)
	return e, nil
}

// v2Counts are the counts every section length derives from: the hub count
// and K, the hub columns' non-zeros, the stored states and rows, each state
// slab's non-zeros and packed index bytes, and P (0 for a full image).
type v2Counts struct {
	hubs, k, colNNZ, states, rows int
	rNNZ, wNNZ, sNNZ              int
	rBytes, wBytes, sBytes        int
	shards                        int
}

// sectionLens is the one section-length table: the emitter lays an image out
// by it and the parser checks every stored length against it.
func (c v2Counts) sectionLens() [v2NumSectionsSharded]int {
	hubCount, numStates := c.hubs, c.states
	lens := [v2NumSectionsSharded]int{
		secMeta:         v2MetaSize,
		secHubIDs:       4 * hubCount,
		secHubTopK:      8 * hubCount * c.k,
		secHubDropped:   8 * hubCount,
		secHubColOff:    8 * (hubCount + 1),
		secHubColIdx:    4 * c.colNNZ,
		secHubColVal:    4 * c.colNNZ,
		secStateT:       4 * numStates,
		secStateRNorm:   8 * numStates,
		secStateROff:    8 * (numStates + 1),
		secStateRIdxOff: 8 * (numStates + 1),
		secStateRIdx:    c.rBytes,
		secStateRVal:    4 * c.rNNZ,
		secStateWOff:    8 * (numStates + 1),
		secStateWIdxOff: 8 * (numStates + 1),
		secStateWIdx:    c.wBytes,
		secStateWVal:    4 * c.wNNZ,
		secStateSOff:    8 * (numStates + 1),
		secStateSIdxOff: 8 * (numStates + 1),
		secStateSIdx:    c.sBytes,
		secStateSVal:    4 * c.sNNZ,
		secPhat:         8 * c.rows * c.k,
	}
	if c.shards > 0 {
		lens[secPartMeta] = v2PartMetaSize
		lens[secPartBounds] = 4 * (c.shards + 1)
		lens[secPartRows] = 4 * c.rows
	}
	return lens
}

// eachState visits the committed states in ascending node order — exactly
// the order every state-slab section serializes them in.
func (e *v2emitter) eachState(f func(st *stored)) {
	e.eachRow(func(u graph.NodeID) {
		if st := e.idx.states[u]; st != nil {
			f(st)
		}
	})
}

// emitSection streams the payload of section s (exactly lens[s] bytes).
func (e *v2emitter) emitSection(s int, bw *binWriter) {
	o := e.idx.opts
	switch s {
	case secMeta:
		bw.u64(uint64(e.idx.n))
		bw.u32(uint32(o.K))
		bw.u32(uint32(o.HubBudget))
		bw.u32(0) // retired hub-scheme slot
		bw.u32(uint32(o.BCA.MaxIters))
		bw.u32(uint32(o.RWR.MaxIters))
		bw.u32(uint32(len(e.hubIDs)))
		bw.u32(uint32(e.numStates))
		bw.u32(0) // pad to the 8-aligned i64/f64 block
		bw.u64(0) // retired greedy-seed slot
		bw.f64(o.Omega)
		bw.f64(o.BCA.Alpha)
		bw.f64(o.BCA.Eta)
		bw.f64(o.BCA.Delta)
		bw.f64(o.RWR.Alpha)
		bw.f64(o.RWR.Eps)
		bw.i64(e.idx.refinements.Load())
		bw.u64(e.watermark)
	case secHubIDs:
		for _, h := range e.hubIDs {
			bw.u32(uint32(h))
		}
	case secHubTopK:
		for i := range e.hubIDs {
			bw.floats(e.topK[i])
		}
	case secHubDropped:
		bw.floats(e.dropped)
	case secHubColOff:
		nnz := 0
		bw.u64(0)
		for _, c := range e.cols {
			nnz += c.NNZ()
			bw.u64(uint64(nnz))
		}
	case secHubColIdx:
		for _, c := range e.cols {
			for _, v := range c.Idx {
				bw.u32(uint32(v))
			}
		}
	case secHubColVal:
		for _, c := range e.cols {
			bw.floats32(c.Val)
		}
	case secStateT:
		e.eachState(func(st *stored) { bw.u32(uint32(st.T)) })
	case secStateRNorm:
		e.eachState(func(st *stored) { bw.f64(st.RNorm) })
	case secStateROff, secStateWOff, secStateSOff:
		nnz := 0
		bw.u64(0)
		e.eachState(func(st *stored) {
			nnz += e.stateVec(st, s).NNZ()
			bw.u64(uint64(nnz))
		})
	case secStateRIdxOff, secStateWIdxOff, secStateSIdxOff:
		off := 0
		bw.u64(0)
		e.eachState(func(st *stored) {
			off += len(e.stateVec(st, s).Idx)
			bw.u64(uint64(off))
		})
	case secStateRIdx, secStateWIdx, secStateSIdx:
		e.eachState(func(st *stored) { bw.bytes(e.stateVec(st, s).Idx) })
	case secStateRVal, secStateWVal, secStateSVal:
		e.eachState(func(st *stored) { bw.floats32(e.stateVec(st, s).Val) })
	case secPhat:
		e.eachRow(func(u graph.NodeID) { bw.floats(e.idx.phat[u]) })
	case secPartMeta:
		bw.u32(2) // strategy slot: NewBalanced's value, which default builds have always written
		bw.u32(uint32(e.idx.part.P()))
		bw.u32(uint32(e.idx.shardID))
		bw.u32(0) // pad to the 8-aligned slot below
		bw.u64(0) // retired hash-seed slot
	case secPartBounds:
		_, _, bounds := e.idx.part.Parts()
		for _, b := range bounds {
			bw.u32(uint32(b))
		}
	case secPartRows:
		e.eachRow(func(u graph.NodeID) { bw.u32(uint32(u)) })
	}
}

// stateVec maps a R/W/S section id to the state's matching packed vector.
func (e *v2emitter) stateVec(st *stored, s int) vecmath.Packed32 {
	switch s {
	case secStateROff, secStateRIdxOff, secStateRIdx, secStateRVal:
		return st.R
	case secStateWOff, secStateWIdxOff, secStateWIdx, secStateWVal:
		return st.W
	default:
		return st.S
	}
}

// emitBody streams everything after the header — inter-section alignment
// padding and every section in order — ending exactly at fileSize.
func (e *v2emitter) emitBody(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriterSize(w, 1<<20)}
	pos := v2HeaderEndOf(e.nsec)
	for s := 0; s < e.nsec; s++ {
		for ; pos < e.offs[s]; pos++ {
			bw.u8(0)
		}
		e.emitSection(s, bw)
		pos += e.lens[s]
	}
	for ; pos < e.fileSize; pos++ {
		bw.u8(0)
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// buildHeader assembles the preamble and section table; the fileCRC field
// (bytes 24:28) is filled by Save once the body checksum is known.
func (e *v2emitter) buildHeader(secCRC []uint32) []byte {
	header := make([]byte, v2HeaderEndOf(e.nsec))
	copy(header, indexMagicV4)
	binary.LittleEndian.PutUint64(header[8:], uint64(e.fileSize))
	binary.LittleEndian.PutUint32(header[16:], uint32(e.nsec))
	for s := 0; s < e.nsec; s++ {
		entry := header[v2PreambleSize+s*v2TableEntry:]
		binary.LittleEndian.PutUint32(entry[0:], uint32(s))
		binary.LittleEndian.PutUint32(entry[4:], secCRC[s])
		binary.LittleEndian.PutUint64(entry[8:], uint64(e.offs[s]))
		binary.LittleEndian.PutUint64(entry[16:], uint64(e.lens[s]))
	}
	binary.LittleEndian.PutUint32(header[20:], crc32.Checksum(header[v2PreambleSize:], castagnoli))
	return header
}

// loadV2Stream reads an index image from a reader (the heap path): the whole
// image is buffered (aligned, so slabs alias it in place on little-endian
// hosts) and parsed with full semantic validation.
func loadV2Stream(br *bufio.Reader) (*Index, error) {
	var pre [v2PreambleSize]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, fmt.Errorf("lbindex: reading index preamble: %w", err)
	}
	fileSize := binary.LittleEndian.Uint64(pre[8:16])
	// The math.MaxInt bound matters on 32-bit platforms, where a u64 size
	// would otherwise wrap negative through int and panic in make.
	if fileSize < v2HeaderEnd || fileSize > maxV2FileSize || fileSize > math.MaxInt {
		return nil, fmt.Errorf("lbindex: implausible index image size %d", fileSize)
	}
	data, err := readAligned(br, pre[:], int(fileSize))
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("lbindex: trailing data after %d-byte index image", fileSize)
	}
	return parseV2(data, true)
}

// readAligned reads the remainder of an n-byte image (whose first bytes,
// pre, were already consumed) into one 8-aligned buffer. The buffer grows
// geometrically as data actually arrives, so a corrupt size field cannot
// trigger a huge up-front make, while a genuine large image pays ~one
// extra copy total instead of the ReadAll-then-realign double copy.
func readAligned(r io.Reader, pre []byte, n int) ([]byte, error) {
	size := n
	if size > 1<<20 {
		size = 1 << 20
	}
	buf := alignedBytes(size)
	copy(buf, pre)
	read := len(pre)
	for read < n {
		if read == len(buf) {
			size = len(buf) * 2
			if size > n {
				size = n
			}
			next := alignedBytes(size)
			copy(next, buf)
			buf = next
		}
		m, err := r.Read(buf[read:])
		read += m
		if err == io.EOF && read < n {
			return nil, fmt.Errorf("lbindex: index image truncated: header claims %d bytes, got %d", n, read)
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("lbindex: reading index image: %w", err)
		}
	}
	return buf[:n], nil
}

// v2parser decodes slabs out of one verified image, either aliasing them in
// place (mmap / aligned heap buffer on little-endian hosts) or copying.
type v2parser struct {
	data  []byte
	nsec  int
	offs  [v2NumSectionsSharded]int
	lens  [v2NumSectionsSharded]int
	alias bool
}

func (p *v2parser) bytes(s int) []byte { return p.data[p.offs[s] : p.offs[s]+p.lens[s]] }

func (p *v2parser) f64s(s int) []float64 {
	b := p.bytes(s)
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if p.alias {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func (p *v2parser) f32s(s int) []float32 {
	b := p.bytes(s)
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if p.alias {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (p *v2parser) i32s(s int) []int32 {
	b := p.bytes(s)
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if p.alias {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// u64at reads entry i of a u64 offset-table section without materializing
// the table.
func (p *v2parser) u64at(s, i int) uint64 {
	return binary.LittleEndian.Uint64(p.bytes(s)[8*i:])
}

// checkOffsets validates a prefix-sum offset table: entry 0 is zero, the
// sequence is non-decreasing, and the final entry equals nnz, the entries or
// bytes of the slab it cuts.
func (p *v2parser) checkOffsets(s int, rows, nnz int, what string) error {
	if p.u64at(s, 0) != 0 {
		return fmt.Errorf("lbindex: %s offset table does not start at 0", what)
	}
	prev := uint64(0)
	for i := 1; i <= rows; i++ {
		v := p.u64at(s, i)
		if v < prev || v > uint64(nnz) {
			return fmt.Errorf("lbindex: %s offset table entry %d = %d outside [%d,%d]", what, i, v, prev, nnz)
		}
		prev = v
	}
	if prev != uint64(nnz) {
		return fmt.Errorf("lbindex: %s offset table ends at %d, slab holds %d entries", what, prev, nnz)
	}
	return nil
}

// checkValues is the deep loader's check of an f32 value slab: every value
// a finite non-negative.
func checkValues(xs []float32, what string) error {
	for i, x := range xs {
		if !(x >= 0) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("lbindex: %s value %d, %g, is not a finite non-negative", what, i, x)
		}
	}
	return nil
}

// parseV2 decodes one complete index image. deep selects full semantic
// validation (heap loads of possibly hand-crafted files); the mmap path
// runs structural validation only, trusting the verified checksums for
// byte integrity. Never panics on any input.
func parseV2(data []byte, deep bool) (*Index, error) {
	if len(data) < v2PreambleSize {
		return nil, fmt.Errorf("lbindex: index image shorter (%d B) than its preamble", len(data))
	}
	if string(data[:8]) != indexMagicV4 {
		return nil, fmt.Errorf("lbindex: bad magic %q", data[:8])
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != uint64(len(data)) {
		return nil, fmt.Errorf("lbindex: index header claims %d bytes, image has %d", got, len(data))
	}
	nsec := int(binary.LittleEndian.Uint32(data[16:20]))
	if nsec == v2NumSections+1 || nsec == v2NumSectionsSharded+1 {
		return nil, ErrRelabeled
	}
	if !validNsec(nsec) {
		return nil, fmt.Errorf("lbindex: index image has %d sections, want %d (full) or %d (shard slice)",
			nsec, v2NumSections, v2NumSectionsSharded)
	}
	headerEnd := v2HeaderEndOf(nsec)
	if len(data) < headerEnd {
		return nil, fmt.Errorf("lbindex: index image shorter (%d B) than its %d-section header", len(data), nsec)
	}
	if got := crc32.Checksum(data[v2PreambleSize:headerEnd], castagnoli); got != binary.LittleEndian.Uint32(data[20:24]) {
		return nil, fmt.Errorf("lbindex: section table checksum mismatch (corrupt header)")
	}
	fileCRC := crc32.Update(crc32.Checksum(data[:24], castagnoli), castagnoli, data[28:])
	if fileCRC != binary.LittleEndian.Uint32(data[24:28]) {
		return nil, fmt.Errorf("lbindex: image checksum mismatch: %s", localizeV2Corruption(data))
	}

	// Aliasing requires a little-endian host and an 8-aligned image base
	// (mmap is page-aligned, the stream loader allocates aligned; arbitrary
	// test slices may not be) — otherwise fall back to copying decode.
	p := &v2parser{data: data, nsec: nsec, alias: hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%8 == 0}
	for s := 0; s < nsec; s++ {
		e := data[v2PreambleSize+s*v2TableEntry:]
		if id := binary.LittleEndian.Uint32(e[0:]); id != uint32(s) {
			return nil, fmt.Errorf("lbindex: section at position %d has id %d, want %d", s, id, s)
		}
		off, ln := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off%8 != 0 || off < uint64(headerEnd) || ln > uint64(len(data)) || off > uint64(len(data))-ln {
			return nil, fmt.Errorf("lbindex: section %d spans [%d,%d) outside the %d-byte image", s, off, off+ln, len(data))
		}
		p.offs[s], p.lens[s] = int(off), int(ln)
	}

	if p.lens[secMeta] != v2MetaSize {
		return nil, fmt.Errorf("lbindex: meta section has %d bytes, want %d", p.lens[secMeta], v2MetaSize)
	}
	mb := p.bytes(secMeta)
	n := int(int64(binary.LittleEndian.Uint64(mb[0:])))
	var o Options
	o.K = int(int32(binary.LittleEndian.Uint32(mb[8:])))
	o.HubBudget = int(int32(binary.LittleEndian.Uint32(mb[12:])))
	// [16,20) and [40,48) are the retired hub-scheme and greedy-seed slots:
	// hubs are stored ids, so no reader needs them.
	o.BCA.MaxIters = int(int32(binary.LittleEndian.Uint32(mb[20:])))
	o.RWR.MaxIters = int(int32(binary.LittleEndian.Uint32(mb[24:])))
	hubCount := int(int32(binary.LittleEndian.Uint32(mb[28:])))
	numStates := int(int32(binary.LittleEndian.Uint32(mb[32:])))
	o.Omega = math.Float64frombits(binary.LittleEndian.Uint64(mb[48:]))
	o.BCA.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(mb[56:]))
	o.BCA.Eta = math.Float64frombits(binary.LittleEndian.Uint64(mb[64:]))
	o.BCA.Delta = math.Float64frombits(binary.LittleEndian.Uint64(mb[72:]))
	o.RWR.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(mb[80:]))
	o.RWR.Eps = math.Float64frombits(binary.LittleEndian.Uint64(mb[88:]))
	refinements := int64(binary.LittleEndian.Uint64(mb[96:]))
	watermark := binary.LittleEndian.Uint64(mb[104:])
	if n <= 0 || n > 1<<31 || o.K <= 0 || o.K > maxPlausibleK {
		return nil, fmt.Errorf("lbindex: implausible header n=%d K=%d", n, o.K)
	}
	if hubCount < 0 || hubCount > n || numStates < 0 || numStates > n-hubCount {
		return nil, fmt.Errorf("lbindex: implausible hub/state counts %d/%d for n=%d", hubCount, numStates, n)
	}
	if !shardedNsec(nsec) && numStates != n-hubCount {
		return nil, fmt.Errorf("lbindex: full image stores %d states, graph has %d non-hub nodes", numStates, n-hubCount)
	}
	if refinements < 0 {
		return nil, fmt.Errorf("lbindex: negative refinement counter %d", refinements)
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("lbindex: corrupt header options: %w", err)
	}

	// Shard slices: reconstruct the partition map and the stored row range
	// before sizing the row-indexed slabs. The row section restates the
	// range, lo..hi; the seed slot at [16,24) is retired.
	var pm *partition.Map
	shardID := 0
	lo, hi := 0, n
	if shardedNsec(nsec) {
		if p.lens[secPartMeta] != v2PartMetaSize {
			return nil, fmt.Errorf("lbindex: partition meta section has %d bytes, want %d", p.lens[secPartMeta], v2PartMetaSize)
		}
		pb := p.bytes(secPartMeta)
		// The strategy slot says only how the bounds were cut: 1 by the
		// removed range partitioner, 2 by NewBalanced; 0 was the removed
		// hash partitioner, whose shards did not own one range each.
		switch strategy := binary.LittleEndian.Uint32(pb[0:]); strategy {
		case 0:
			return nil, partition.ErrHash
		case 1, 2:
		default:
			return nil, fmt.Errorf("lbindex: unknown partition strategy %d", strategy)
		}
		shards := int(int32(binary.LittleEndian.Uint32(pb[4:])))
		shardID = int(int32(binary.LittleEndian.Uint32(pb[8:])))
		var err error
		pm, err = partition.FromParts(n, shards, p.i32s(secPartBounds))
		if err != nil {
			return nil, err
		}
		if shardID < 0 || shardID >= shards {
			return nil, fmt.Errorf("lbindex: shard id %d outside [0,%d)", shardID, shards)
		}
		lo, hi = pm.Range(shardID)
		rows := p.i32s(secPartRows)
		if len(rows) != hi-lo {
			return nil, fmt.Errorf("lbindex: image stores %d rows, shard %d owns %d", len(rows), shardID, hi-lo)
		}
		for i, u := range rows {
			if int(u) != lo+i {
				return nil, fmt.Errorf("lbindex: row list holds %d at position %d, shard %d owns [%d,%d)", u, i, shardID, lo, hi)
			}
		}
	}

	// Expected section lengths, from the validated counts.
	colNNZ := p.lens[secHubColIdx] / 4
	c := v2Counts{
		hubs: hubCount, k: o.K, colNNZ: colNNZ, states: numStates, rows: hi - lo,
		rNNZ: p.lens[secStateRVal] / 4, wNNZ: p.lens[secStateWVal] / 4, sNNZ: p.lens[secStateSVal] / 4,
		rBytes: p.lens[secStateRIdx], wBytes: p.lens[secStateWIdx], sBytes: p.lens[secStateSIdx],
	}
	if pm != nil {
		c.shards = pm.P()
	}
	want := c.sectionLens()
	for s := 0; s < nsec; s++ {
		if p.lens[s] != want[s] {
			return nil, fmt.Errorf("lbindex: section %d holds %d bytes, want %d", s, p.lens[s], want[s])
		}
	}

	// Hub matrix: FromParts validates hub ids and column structure.
	hubIDs := p.i32s(secHubIDs)
	colIdx, colVal := p.i32s(secHubColIdx), p.f32s(secHubColVal)
	if err := p.checkOffsets(secHubColOff, hubCount, colNNZ, "hub column"); err != nil {
		return nil, err
	}
	cols := make([]vecmath.Sparse32, hubCount)
	topKSlab := p.f64s(secHubTopK)
	topK := make([][]float64, hubCount)
	for i := 0; i < hubCount; i++ {
		a, b := p.u64at(secHubColOff, i), p.u64at(secHubColOff, i+1)
		cols[i] = vecmath.Sparse32{Idx: colIdx[a:b:b], Val: colVal[a:b:b]}
		topK[i] = topKSlab[i*o.K : (i+1)*o.K : (i+1)*o.K]
	}
	dropped := p.f64s(secHubDropped)
	if deep {
		for i, d := range dropped {
			if !(d >= 0) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("lbindex: hub %d dropped mass %g not a finite non-negative", i, d)
			}
		}
		for i := range topK {
			if err := checkProximities(topK[i], fmt.Sprintf("hub %d top-K", i)); err != nil {
				return nil, err
			}
		}
	}
	hm, err := hub.FromParts(n, hubIDs, cols, topK, dropped, o.Omega)
	if err != nil {
		return nil, err
	}

	// Per-node states and p̂ columns. Each kind's two offset tables cut its
	// index and value slabs; Packed32.Validate then holds every row's count to
	// its values'.
	for _, s := range []struct {
		sec, size int
		what      string
	}{
		{secStateROff, c.rNNZ, "state R"}, {secStateRIdxOff, c.rBytes, "state R index"},
		{secStateWOff, c.wNNZ, "state W"}, {secStateWIdxOff, c.wBytes, "state W index"},
		{secStateSOff, c.sNNZ, "state S"}, {secStateSIdxOff, c.sBytes, "state S index"},
	} {
		if err := p.checkOffsets(s.sec, numStates, s.size, s.what); err != nil {
			return nil, err
		}
	}
	tSlab := p.i32s(secStateT)
	rnorm := p.f64s(secStateRNorm)
	rVal, wVal, sVal := p.f32s(secStateRVal), p.f32s(secStateWVal), p.f32s(secStateSVal)
	if deep {
		if err := errors.Join(checkValues(colVal, "hub column"), checkValues(rVal, "state R"),
			checkValues(wVal, "state W"), checkValues(sVal, "state S")); err != nil {
			return nil, err
		}
	}
	phatSlab := p.f64s(secPhat)
	stateArr := make([]stored, numStates)
	states := make([]*stored, n)
	phat := make([][]float64, n)
	nodes := make([]graph.NodeID, 0, numStates) // the node of each state
	for u := lo; u < hi; u++ {
		r := u - lo
		phat[u] = phatSlab[r*o.K : (r+1)*o.K : (r+1)*o.K]
		if deep {
			if err := checkProximities(phat[u], fmt.Sprintf("p̂ of node %d", u)); err != nil {
				return nil, err
			}
		}
		if hm.IsHub(graph.NodeID(u)) {
			continue
		}
		i := len(nodes)
		if i >= numStates {
			return nil, fmt.Errorf("lbindex: image stores %d states but node %d is the %d-th non-hub row", numStates, u, i+1)
		}
		st := &stateArr[i]
		st.T = int(tSlab[i])
		st.RNorm = rnorm[i]
		if st.T < 0 || !(st.RNorm >= 0) || math.IsInf(st.RNorm, 0) {
			return nil, fmt.Errorf("lbindex: state of node %d has T=%d RNorm=%g", u, st.T, st.RNorm)
		}
		states[u] = st
		nodes = append(nodes, graph.NodeID(u))
	}
	if len(nodes) != numStates {
		return nil, fmt.Errorf("lbindex: image stores %d states, its rows hold %d non-hub nodes", numStates, len(nodes))
	}
	// Every state row is decoded once here, in BOTH load modes: its indices
	// guard every scatter in the query path. Value checks (checkValues) are
	// deep-mode only. The decoding is most of an mmap load's time, so it runs
	// on every processor, each over a run of consecutive states; the error
	// returned is the first state's to fail, as one pass in order would give.
	vals := [3][]float32{rVal, wVal, sVal}
	runs := vecmath.Split(numStates, vecmath.Workers(0))
	errs := make([]error, len(runs))
	vecmath.Parallel(len(runs), func(part int) {
		for i := runs[part].Lo; i < runs[part].Hi; i++ {
			if err := p.stateRows(&stateArr[i], i, n, hm, vals); err != nil {
				errs[part] = fmt.Errorf("lbindex: state of node %d: %w", nodes[i], err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	idx := &Index{opts: o, n: n, hubs: hm, phat: phat, states: states, part: pm, shardID: shardID}
	idx.refinements.Store(refinements)
	idx.watermark.Store(watermark)
	if deep {
		if err := idx.CheckInvariants(); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// stateRows cuts state i's R, W and S out of their checked offset tables
// into st, their values out of vals, and validates them: every index in
// [0, n), and every S index a hub — S holds ink parked at hubs, and a non-hub
// index would be read out of the hub matrix's dropped-mass and column arrays
// at query time.
func (p *v2parser) stateRows(st *stored, i, n int, hm *hub.Matrix, vals [3][]float32) error {
	for k, kind := range [3]struct {
		row              *vecmath.Packed32
		off, idxOff, idx int
		name             string
	}{
		{&st.R, secStateROff, secStateRIdxOff, secStateRIdx, "R"},
		{&st.W, secStateWOff, secStateWIdxOff, secStateWIdx, "W"},
		{&st.S, secStateSOff, secStateSIdxOff, secStateSIdx, "S"},
	} {
		a, b := p.u64at(kind.off, i), p.u64at(kind.off, i+1)
		x, y := p.u64at(kind.idxOff, i), p.u64at(kind.idxOff, i+1)
		*kind.row = vecmath.Packed32{Idx: p.bytes(kind.idx)[x:y:y], Val: vals[k][a:b:b]}
		if err := kind.row.Validate(n); err != nil {
			return fmt.Errorf("%s: %w", kind.name, err)
		}
	}
	for _, h := range st.S.Ids() {
		if !hm.IsHub(h) {
			return fmt.Errorf("S parks ink at non-hub %d", h)
		}
	}
	return nil
}

// checkProximities validates one descending proximity column: every value a
// finite probability mass in [0, 1+tol], ordered descending.
func checkProximities(xs []float64, what string) error {
	for i, x := range xs {
		if !(x >= 0) || x > 1+1e-6 {
			return fmt.Errorf("lbindex: %s: proximity %g at position %d outside [0,1]", what, x, i)
		}
		if i > 0 && x > xs[i-1] {
			return fmt.Errorf("lbindex: %s: not descending at position %d", what, i)
		}
	}
	return nil
}

// localizeV2Corruption names the first section whose own CRC fails, for the
// whole-file checksum error message.
func localizeV2Corruption(data []byte) string {
	nsec := int(binary.LittleEndian.Uint32(data[16:20]))
	if !validNsec(nsec) {
		return fmt.Sprintf("implausible section count %d", nsec)
	}
	if len(data) < v2HeaderEndOf(nsec) {
		return "header truncated"
	}
	for s := 0; s < nsec; s++ {
		e := data[v2PreambleSize+s*v2TableEntry:]
		crc := binary.LittleEndian.Uint32(e[4:])
		off, ln := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off > uint64(len(data)) || ln > uint64(len(data))-off {
			return fmt.Sprintf("section %d table entry out of bounds", s)
		}
		if crc32.Checksum(data[off:off+ln], castagnoli) != crc {
			return fmt.Sprintf("section %d payload corrupt", s)
		}
	}
	return "preamble, table or padding corrupt"
}
