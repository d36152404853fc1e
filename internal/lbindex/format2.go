package lbindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/partition"
	"repro/internal/vecmath"
)

// Index format v2 ("RTKLBIX2"). Little-endian throughout, designed so a
// loader can serve every large array zero-copy out of an mmap'd file:
//
//	preamble (32 B):
//	  0  magic    "RTKLBIX2"
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
// concatenated into one index slab + one value slab, with a u64 prefix-sum
// offset table giving each row's boundaries; p̂ is one dense [n×K]f64 slab.
// Node tags are implicit: a node is a state node iff it is not a hub. A
// summarized state (bca.State.Summarized, Index.summarize) is an ordinary
// state row whose R and W ranges are empty and whose ‖r‖₁ is positive: it
// needs no section, tag or magic of its own, and an index holding no summary
// is written exactly as before.
//
// SHARD SLICES use the same container with three extra sections (nsec =
// v2NumSectionsSharded): the partition-map fields (strategy, P, shard id,
// hash seed, range bounds) and the explicit ascending owned-row list. In a
// shard image the meta node count n stays GLOBAL and the hub sections still
// describe the full hub matrix (every shard refines against it), but the
// state slabs cover only the owned non-hub rows and the p̂ slab only the
// owned rows, in owned order — a P-way sharding therefore costs ≈ 1× the
// full index on disk in total, not P×. Full images are written exactly as
// before, bit for bit.
//
// Indexes carrying a cache-aware relabeling append one more trailing section
// (secPerm; nsec = 20 full, 23 sharded) holding the external→internal node
// permutation, so the translation boundary survives a save/load round trip.
//
// Every byte of the image except the fileCRC field itself is covered by
// fileCRC, so any single-byte corruption is detected (the fileCRC field is
// self-checking: corrupting it breaks the comparison). Per-section CRCs
// exist to localize the damage in error messages and are all covered by
// fileCRC too.
const indexMagicV2 = "RTKLBIX2"

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
	secStateRIdx
	secStateRVal
	secStateWOff
	secStateWIdx
	secStateWVal
	secStateSOff
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

// secPerm stores the build-time cache-aware node relabeling: one u32
// internal id per external id (see Index.SetRelabeling). The section is
// OPTIONAL — indexes without a relabeling write exactly the old images, bit
// for bit — and when present always occupies the LAST table position, with
// this fixed id in both full (nsec = v2NumSectionsPerm) and shard-slice
// (nsec = v2NumSectionsShardedPerm) images; sectionID maps table positions
// to ids. The payload may cover fewer nodes than n when the image was saved
// after node growth (grown ids keep identity labels) and must be a bijection
// on its own length, which every loader verifies.
const secPerm = v2NumSectionsSharded

const (
	v2NumSectionsPerm        = v2NumSections + 1
	v2NumSectionsShardedPerm = v2NumSectionsSharded + 1
	// v2MaxSections sizes the by-section-id offset/length tables.
	v2MaxSections = secPerm + 1
)

// hasPermSection reports whether a section count implies a trailing
// relabeling section.
func hasPermSection(nsec int) bool {
	return nsec == v2NumSectionsPerm || nsec == v2NumSectionsShardedPerm
}

// validNsec reports whether nsec is one of the four section counts a v2
// image can carry.
func validNsec(nsec int) bool {
	return nsec == v2NumSections || nsec == v2NumSectionsSharded || hasPermSection(nsec)
}

// shardedNsec reports whether nsec implies the shard-slice sections.
func shardedNsec(nsec int) bool {
	return nsec == v2NumSectionsSharded || nsec == v2NumSectionsShardedPerm
}

// sectionID maps a table position to its section id: the identity, except
// that the last position of a perm-carrying image holds secPerm.
func sectionID(nsec, pos int) int {
	if hasPermSection(nsec) && pos == nsec-1 {
		return secPerm
	}
	return pos
}

const (
	v2PreambleSize = 32
	v2TableEntry   = 24
	v2HeaderEnd    = v2PreambleSize + v2NumSections*v2TableEntry
	// v2MetaSize is the current meta-section length: the original 104-byte
	// block plus the u64 edit-journal watermark at [104,112). Images
	// written before the watermark existed carry v2MetaSizeLegacy bytes and
	// load with watermark 0 — the section table already delimits meta, so
	// growing it is a compatible extension, not a new format.
	v2MetaSize       = 112
	v2MetaSizeLegacy = 104
	v2PartMetaSize   = 24
	// maxV2FileSize bounds the image length a loader will believe; anything
	// larger is corruption (and would be rejected by the CRC anyway, but the
	// bound keeps speculative work proportional to plausible input).
	maxV2FileSize = 1 << 40
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// v2HeaderEndOf returns the first payload offset of an image with nsec
// sections (v2HeaderEnd for full images, larger for shard slices).
func v2HeaderEndOf(nsec int) int { return v2PreambleSize + nsec*v2TableEntry }

// hostLittleEndian reports whether float64/int32 slabs can be aliased
// directly; on a big-endian host the loaders fall back to copying decode.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignUp8 rounds an offset up to the next 8-byte boundary.
func alignUp8(x int) int { return (x + 7) &^ 7 }

// alignedBytes allocates a byte slice whose backing array is 8-byte
// aligned, so float64 slabs at 8-aligned offsets can be aliased in place.
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
	// Mmap serves v2 images zero-copy from the mapped file. Off (or on an
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
// offset-table monotonicity, sparse index ranges) but skips the per-value
// scans (finiteness, ordering, ink conservation) that the heap loader
// performs — the checksum already guarantees the bytes are exactly what
// Save wrote. Load files from untrusted sources with Mmap off. A format v1
// file is refused with ErrFormatV1 on either path.
func LoadFile(path string, opts LoadOptions) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	k, _ := io.ReadFull(f, magic[:]) // a short or failed read is Load's to report
	if string(magic[:k]) == indexMagicV1 {
		return nil, fmt.Errorf("%s: %w", path, ErrFormatV1)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if string(magic[:k]) != indexMagicV2 || !opts.Mmap || !mmapSupported || !hostLittleEndian {
		// A heap load, or not a v2 image (too short to tell, unknown
		// magic): the stream loader reads it or gives the real error.
		return Load(f)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() > maxV2FileSize || st.Size() > math.MaxInt {
		return nil, fmt.Errorf("lbindex: index file %s is implausibly large (%d bytes)", path, st.Size())
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

// Save writes the index in format v2, streaming: memory stays O(buffer)
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
		e.emitSection(sectionID(e.nsec, s), bw)
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
	cols    []vecmath.Sparse
	topK    [][]float64
	dropped []float64
	// nsec is v2NumSections for full images, v2NumSectionsSharded for
	// shard slices; rows is the owned-row list (nil = all of [0, n)) and
	// numStates the count of serialized states (rows that are not hubs).
	nsec      int
	rows      []graph.NodeID
	numStates int
	// watermark is snapshotted once at emitter construction: the body is
	// streamed three times (section CRCs, file CRC, output), and a value
	// read per pass could change between passes and tear the checksums.
	watermark uint64
	lens      [v2MaxSections]int
	offs      [v2MaxSections]int
	fileSize  int
}

// rowCount returns how many p̂ rows the image stores.
func (e *v2emitter) rowCount() int {
	if e.rows != nil {
		return len(e.rows)
	}
	return e.idx.n
}

// eachRow visits the stored rows in serialization order.
func (e *v2emitter) eachRow(f func(u graph.NodeID)) {
	if e.rows != nil {
		for _, u := range e.rows {
			f(u)
		}
		return
	}
	for u := 0; u < e.idx.n; u++ {
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
	var partBounds []int32
	if idx.part != nil {
		e.nsec = v2NumSectionsSharded
		e.rows = idx.owned
		_, _, _, _, partBounds = idx.part.Parts()
	}
	if idx.perm != nil {
		e.nsec++ // the trailing secPerm section
	}

	var colNNZ, rNNZ, wNNZ, sNNZ int
	for _, c := range cols {
		colNNZ += c.NNZ()
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
		rNNZ += st.R.NNZ()
		wNNZ += st.W.NNZ()
		sNNZ += st.S.NNZ()
	})
	if rowErr != nil {
		return nil, rowErr
	}
	numStates := e.numStates

	e.lens = [v2MaxSections]int{
		secMeta:       v2MetaSize,
		secHubIDs:     4 * hubCount,
		secHubTopK:    8 * hubCount * o.K,
		secHubDropped: 8 * hubCount,
		secHubColOff:  8 * (hubCount + 1),
		secHubColIdx:  4 * colNNZ,
		secHubColVal:  8 * colNNZ,
		secStateT:     4 * numStates,
		secStateRNorm: 8 * numStates,
		secStateROff:  8 * (numStates + 1),
		secStateRIdx:  4 * rNNZ,
		secStateRVal:  8 * rNNZ,
		secStateWOff:  8 * (numStates + 1),
		secStateWIdx:  4 * wNNZ,
		secStateWVal:  8 * wNNZ,
		secStateSOff:  8 * (numStates + 1),
		secStateSIdx:  4 * sNNZ,
		secStateSVal:  8 * sNNZ,
		secPhat:       8 * e.rowCount() * o.K,
	}
	if idx.part != nil {
		e.lens[secPartMeta] = v2PartMetaSize
		e.lens[secPartBounds] = 4 * len(partBounds)
		e.lens[secPartRows] = 4 * len(e.rows)
	}
	if idx.perm != nil {
		e.lens[secPerm] = 4 * len(idx.perm)
	}
	pos := v2HeaderEndOf(e.nsec)
	for s := 0; s < e.nsec; s++ {
		id := sectionID(e.nsec, s)
		pos = alignUp8(pos)
		e.offs[id] = pos
		pos += e.lens[id]
	}
	e.fileSize = alignUp8(pos)
	return e, nil
}

// eachState visits the committed states in ascending node order (owned
// order for shard slices) — exactly the order every state-slab section
// serializes them in.
func (e *v2emitter) eachState(f func(st *bca.State)) {
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
		bw.u32(uint32(o.HubScheme))
		bw.u32(uint32(o.BCA.MaxIters))
		bw.u32(uint32(o.RWR.MaxIters))
		bw.u32(uint32(len(e.hubIDs)))
		bw.u32(uint32(e.numStates))
		bw.u32(0) // pad to the 8-aligned i64/f64 block
		bw.i64(o.GreedySeed)
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
			bw.floats(c.Val)
		}
	case secStateT:
		e.eachState(func(st *bca.State) { bw.u32(uint32(st.T)) })
	case secStateRNorm:
		e.eachState(func(st *bca.State) { bw.f64(st.RNorm) })
	case secStateROff, secStateWOff, secStateSOff:
		nnz := 0
		bw.u64(0)
		e.eachState(func(st *bca.State) {
			nnz += e.stateVec(st, s).NNZ()
			bw.u64(uint64(nnz))
		})
	case secStateRIdx, secStateWIdx, secStateSIdx:
		e.eachState(func(st *bca.State) {
			for _, v := range e.stateVec(st, s).Idx {
				bw.u32(uint32(v))
			}
		})
	case secStateRVal, secStateWVal, secStateSVal:
		e.eachState(func(st *bca.State) { bw.floats(e.stateVec(st, s).Val) })
	case secPhat:
		e.eachRow(func(u graph.NodeID) { bw.floats(e.idx.phat[u]) })
	case secPartMeta:
		strategy, _, p, seed, _ := e.idx.part.Parts()
		bw.u32(uint32(strategy))
		bw.u32(uint32(p))
		bw.u32(uint32(e.idx.shardID))
		bw.u32(0) // pad to the 8-aligned seed
		bw.u64(seed)
	case secPartBounds:
		_, _, _, _, bounds := e.idx.part.Parts()
		for _, b := range bounds {
			bw.u32(uint32(b))
		}
	case secPartRows:
		for _, u := range e.rows {
			bw.u32(uint32(u))
		}
	case secPerm:
		for _, in := range e.idx.perm {
			bw.u32(uint32(in))
		}
	}
}

// stateVec maps a R/W/S section id to the state's matching sparse vector.
func (e *v2emitter) stateVec(st *bca.State, s int) vecmath.Sparse {
	switch s {
	case secStateROff, secStateRIdx, secStateRVal:
		return st.R
	case secStateWOff, secStateWIdx, secStateWVal:
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
		id := sectionID(e.nsec, s)
		for ; pos < e.offs[id]; pos++ {
			bw.u8(0)
		}
		e.emitSection(id, bw)
		pos += e.lens[id]
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
	copy(header, indexMagicV2)
	binary.LittleEndian.PutUint64(header[8:], uint64(e.fileSize))
	binary.LittleEndian.PutUint32(header[16:], uint32(e.nsec))
	for s := 0; s < e.nsec; s++ {
		id := sectionID(e.nsec, s)
		entry := header[v2PreambleSize+s*v2TableEntry:]
		binary.LittleEndian.PutUint32(entry[0:], uint32(id))
		binary.LittleEndian.PutUint32(entry[4:], secCRC[s])
		binary.LittleEndian.PutUint64(entry[8:], uint64(e.offs[id]))
		binary.LittleEndian.PutUint64(entry[16:], uint64(e.lens[id]))
	}
	binary.LittleEndian.PutUint32(header[20:], crc32.Checksum(header[v2PreambleSize:], castagnoli))
	return header
}

// loadV2Stream reads a v2 image from a reader (the heap path): the whole
// image is buffered (aligned, so slabs alias it in place on little-endian
// hosts) and parsed with full semantic validation.
func loadV2Stream(br *bufio.Reader) (*Index, error) {
	var pre [v2PreambleSize]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, fmt.Errorf("lbindex: reading v2 preamble: %w", err)
	}
	fileSize := binary.LittleEndian.Uint64(pre[8:16])
	// The math.MaxInt bound matters on 32-bit platforms, where a u64 size
	// would otherwise wrap negative through int and panic in make.
	if fileSize < v2HeaderEnd || fileSize > maxV2FileSize || fileSize > math.MaxInt {
		return nil, fmt.Errorf("lbindex: implausible v2 image size %d", fileSize)
	}
	data, err := readAligned(br, pre[:], int(fileSize))
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("lbindex: trailing data after %d-byte v2 image", fileSize)
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
			return nil, fmt.Errorf("lbindex: v2 image truncated: header claims %d bytes, got %d", n, read)
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("lbindex: reading v2 image: %w", err)
		}
	}
	return buf[:n], nil
}

// v2parser decodes slabs out of one verified image, either aliasing them in
// place (mmap / aligned heap buffer on little-endian hosts) or copying.
type v2parser struct {
	data  []byte
	nsec  int
	offs  [v2MaxSections]int
	lens  [v2MaxSections]int
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
// sequence is non-decreasing, and the final entry equals nnz.
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

// checkSparse validates one decoded sparse row structurally: indices
// strictly ascending and in [0,n). This guards every scatter in the query
// path, so it runs in BOTH load modes; value-level checks (finiteness,
// non-negativity) are deep-mode only.
func checkSparse(s vecmath.Sparse, n int, deep bool, what string, row int) error {
	prev := int32(-1)
	for _, v := range s.Idx {
		if v <= prev || int(v) >= n {
			return fmt.Errorf("lbindex: %s of state %d: sparse index %d out of order or outside [0,%d)", what, row, v, n)
		}
		prev = v
	}
	if deep {
		for _, x := range s.Val {
			if !(x >= 0) || math.IsInf(x, 0) {
				return fmt.Errorf("lbindex: %s of state %d: value %g not a finite non-negative", what, row, x)
			}
		}
	}
	return nil
}

// parseV2 decodes one complete v2 image. deep selects full semantic
// validation (heap loads of possibly hand-crafted files); the mmap path
// runs structural validation only, trusting the verified checksums for
// byte integrity. Never panics on any input.
func parseV2(data []byte, deep bool) (*Index, error) {
	if len(data) < v2PreambleSize {
		return nil, fmt.Errorf("lbindex: v2 image shorter (%d B) than its preamble", len(data))
	}
	if string(data[:8]) != indexMagicV2 {
		return nil, fmt.Errorf("lbindex: bad magic %q", data[:8])
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != uint64(len(data)) {
		return nil, fmt.Errorf("lbindex: v2 header claims %d bytes, image has %d", got, len(data))
	}
	nsec := int(binary.LittleEndian.Uint32(data[16:20]))
	if !validNsec(nsec) {
		return nil, fmt.Errorf("lbindex: v2 image has %d sections, want %d/%d (full) or %d/%d (shard slice), the larger with a relabeling",
			nsec, v2NumSections, v2NumSectionsPerm, v2NumSectionsSharded, v2NumSectionsShardedPerm)
	}
	headerEnd := v2HeaderEndOf(nsec)
	if len(data) < headerEnd {
		return nil, fmt.Errorf("lbindex: v2 image shorter (%d B) than its %d-section header", len(data), nsec)
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
		want := sectionID(nsec, s)
		if id := binary.LittleEndian.Uint32(e[0:]); id != uint32(want) {
			return nil, fmt.Errorf("lbindex: section at position %d has id %d, want %d", s, id, want)
		}
		off, ln := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off%8 != 0 || off < uint64(headerEnd) || ln > uint64(len(data)) || off > uint64(len(data))-ln {
			return nil, fmt.Errorf("lbindex: section %d spans [%d,%d) outside the %d-byte image", want, off, off+ln, len(data))
		}
		p.offs[want], p.lens[want] = int(off), int(ln)
	}

	// Meta. Legacy-length blocks predate the journal watermark and imply
	// watermark 0.
	if p.lens[secMeta] != v2MetaSize && p.lens[secMeta] != v2MetaSizeLegacy {
		return nil, fmt.Errorf("lbindex: meta section has %d bytes, want %d (or legacy %d)", p.lens[secMeta], v2MetaSize, v2MetaSizeLegacy)
	}
	mb := p.bytes(secMeta)
	n := int(int64(binary.LittleEndian.Uint64(mb[0:])))
	var o Options
	o.K = int(int32(binary.LittleEndian.Uint32(mb[8:])))
	o.HubBudget = int(int32(binary.LittleEndian.Uint32(mb[12:])))
	o.HubScheme = HubSelection(int32(binary.LittleEndian.Uint32(mb[16:])))
	o.BCA.MaxIters = int(int32(binary.LittleEndian.Uint32(mb[20:])))
	o.RWR.MaxIters = int(int32(binary.LittleEndian.Uint32(mb[24:])))
	hubCount := int(int32(binary.LittleEndian.Uint32(mb[28:])))
	numStates := int(int32(binary.LittleEndian.Uint32(mb[32:])))
	o.GreedySeed = int64(binary.LittleEndian.Uint64(mb[40:]))
	o.Omega = math.Float64frombits(binary.LittleEndian.Uint64(mb[48:]))
	o.BCA.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(mb[56:]))
	o.BCA.Eta = math.Float64frombits(binary.LittleEndian.Uint64(mb[64:]))
	o.BCA.Delta = math.Float64frombits(binary.LittleEndian.Uint64(mb[72:]))
	o.RWR.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(mb[80:]))
	o.RWR.Eps = math.Float64frombits(binary.LittleEndian.Uint64(mb[88:]))
	refinements := int64(binary.LittleEndian.Uint64(mb[96:]))
	var watermark uint64
	if p.lens[secMeta] >= v2MetaSize {
		watermark = binary.LittleEndian.Uint64(mb[104:])
	}
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

	// Shard slices: reconstruct the partition map and the owned-row list
	// before sizing the row-indexed slabs.
	var pm *partition.Map
	shardID := 0
	var rows []graph.NodeID
	rowCount := n
	if shardedNsec(nsec) {
		if p.lens[secPartMeta] != v2PartMetaSize {
			return nil, fmt.Errorf("lbindex: partition meta section has %d bytes, want %d", p.lens[secPartMeta], v2PartMetaSize)
		}
		pb := p.bytes(secPartMeta)
		strategy := partition.Strategy(int32(binary.LittleEndian.Uint32(pb[0:])))
		shards := int(int32(binary.LittleEndian.Uint32(pb[4:])))
		shardID = int(int32(binary.LittleEndian.Uint32(pb[8:])))
		seed := binary.LittleEndian.Uint64(pb[16:])
		var err error
		pm, err = partition.FromParts(strategy, n, shards, seed, p.i32s(secPartBounds))
		if err != nil {
			return nil, err
		}
		if shardID < 0 || shardID >= shards {
			return nil, fmt.Errorf("lbindex: shard id %d outside [0,%d)", shardID, shards)
		}
		rows = p.i32s(secPartRows)
		rowCount = len(rows)
		if rowCount != pm.OwnedCount(shardID) {
			return nil, fmt.Errorf("lbindex: image stores %d rows, shard %d owns %d", rowCount, shardID, pm.OwnedCount(shardID))
		}
		prev := graph.NodeID(-1)
		for _, u := range rows {
			if u <= prev || int(u) >= n {
				return nil, fmt.Errorf("lbindex: owned-row list not strictly ascending within [0,%d) at %d", n, u)
			}
			if pm.Owner(u) != shardID {
				return nil, fmt.Errorf("lbindex: row %d not owned by shard %d", u, shardID)
			}
			prev = u
		}
	}

	// Expected section lengths, from the validated counts.
	colNNZ := p.lens[secHubColIdx] / 4
	rNNZ, wNNZ, sNNZ := p.lens[secStateRIdx]/4, p.lens[secStateWIdx]/4, p.lens[secStateSIdx]/4
	want := [v2MaxSections]int{
		secMeta:       p.lens[secMeta], // already validated: current or legacy size
		secHubIDs:     4 * hubCount,
		secHubTopK:    8 * hubCount * o.K,
		secHubDropped: 8 * hubCount,
		secHubColOff:  8 * (hubCount + 1),
		secHubColIdx:  4 * colNNZ,
		secHubColVal:  8 * colNNZ,
		secStateT:     4 * numStates,
		secStateRNorm: 8 * numStates,
		secStateROff:  8 * (numStates + 1),
		secStateRIdx:  4 * rNNZ,
		secStateRVal:  8 * rNNZ,
		secStateWOff:  8 * (numStates + 1),
		secStateWIdx:  4 * wNNZ,
		secStateWVal:  8 * wNNZ,
		secStateSOff:  8 * (numStates + 1),
		secStateSIdx:  4 * sNNZ,
		secStateSVal:  8 * sNNZ,
		secPhat:       8 * rowCount * o.K,
	}
	if shardedNsec(nsec) {
		want[secPartMeta] = p.lens[secPartMeta]
		want[secPartBounds] = p.lens[secPartBounds]
		want[secPartRows] = p.lens[secPartRows]
	}
	if hasPermSection(nsec) {
		// The relabeling's length is self-describing (bounds-checked when it
		// is decoded below); only 4-byte granularity is structural.
		if p.lens[secPerm]%4 != 0 {
			return nil, fmt.Errorf("lbindex: relabeling section holds %d bytes, not a multiple of 4", p.lens[secPerm])
		}
		want[secPerm] = p.lens[secPerm]
	}
	for s := 0; s < nsec; s++ {
		id := sectionID(nsec, s)
		if p.lens[id] != want[id] {
			return nil, fmt.Errorf("lbindex: section %d holds %d bytes, want %d", id, p.lens[id], want[id])
		}
	}

	// Hub matrix: FromParts validates hub ids and column structure.
	hubIDs := p.i32s(secHubIDs)
	colIdx, colVal := p.i32s(secHubColIdx), p.f64s(secHubColVal)
	if err := p.checkOffsets(secHubColOff, hubCount, colNNZ, "hub column"); err != nil {
		return nil, err
	}
	cols := make([]vecmath.Sparse, hubCount)
	topKSlab := p.f64s(secHubTopK)
	topK := make([][]float64, hubCount)
	for i := 0; i < hubCount; i++ {
		a, b := p.u64at(secHubColOff, i), p.u64at(secHubColOff, i+1)
		cols[i] = vecmath.Sparse{Idx: colIdx[a:b:b], Val: colVal[a:b:b]}
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

	// Per-node states and p̂ columns.
	for _, s := range [][2]int{{secStateROff, rNNZ}, {secStateWOff, wNNZ}, {secStateSOff, sNNZ}} {
		if err := p.checkOffsets(s[0], numStates, s[1], "state"); err != nil {
			return nil, err
		}
	}
	tSlab := p.i32s(secStateT)
	rnorm := p.f64s(secStateRNorm)
	rIdx, rVal := p.i32s(secStateRIdx), p.f64s(secStateRVal)
	wIdx, wVal := p.i32s(secStateWIdx), p.f64s(secStateWVal)
	sIdx, sVal := p.i32s(secStateSIdx), p.f64s(secStateSVal)
	phatSlab := p.f64s(secPhat)
	stateArr := make([]bca.State, numStates)
	states := make([]*bca.State, n)
	phat := make([][]float64, n)
	i := 0
	for r := 0; r < rowCount; r++ {
		u := r
		if rows != nil {
			u = int(rows[r])
		}
		phat[u] = phatSlab[r*o.K : (r+1)*o.K : (r+1)*o.K]
		if deep {
			if err := checkProximities(phat[u], fmt.Sprintf("p̂ of node %d", u)); err != nil {
				return nil, err
			}
		}
		if hm.IsHub(graph.NodeID(u)) {
			continue
		}
		if i >= numStates {
			return nil, fmt.Errorf("lbindex: image stores %d states but node %d is the %d-th non-hub row", numStates, u, i+1)
		}
		st := &stateArr[i]
		st.Origin = graph.NodeID(u)
		st.T = int(tSlab[i])
		st.RNorm = rnorm[i]
		if st.T < 0 || !(st.RNorm >= 0) || math.IsInf(st.RNorm, 0) {
			return nil, fmt.Errorf("lbindex: state of node %d has T=%d RNorm=%g", u, st.T, st.RNorm)
		}
		a, b := p.u64at(secStateROff, i), p.u64at(secStateROff, i+1)
		st.R = vecmath.Sparse{Idx: rIdx[a:b:b], Val: rVal[a:b:b]}
		a, b = p.u64at(secStateWOff, i), p.u64at(secStateWOff, i+1)
		st.W = vecmath.Sparse{Idx: wIdx[a:b:b], Val: wVal[a:b:b]}
		a, b = p.u64at(secStateSOff, i), p.u64at(secStateSOff, i+1)
		st.S = vecmath.Sparse{Idx: sIdx[a:b:b], Val: sVal[a:b:b]}
		if err := checkSparse(st.R, n, deep, "R", u); err != nil {
			return nil, err
		}
		if err := checkSparse(st.W, n, deep, "W", u); err != nil {
			return nil, err
		}
		if err := checkSparse(st.S, n, deep, "S", u); err != nil {
			return nil, err
		}
		// S holds ink parked at hubs; a non-hub index would be read out of
		// the hub matrix's dropped-mass and column arrays at query time.
		for _, h := range st.S.Idx {
			if !hm.IsHub(graph.NodeID(h)) {
				return nil, fmt.Errorf("lbindex: node %d parks ink at non-hub %d", u, h)
			}
		}
		states[u] = st
		i++
	}
	if i != numStates {
		return nil, fmt.Errorf("lbindex: image stores %d states, rows list has %d non-hub nodes", numStates, i)
	}

	idx := &Index{opts: o, n: n, hubs: hm, phat: phat, states: states, part: pm, shardID: shardID, owned: rows}
	idx.refinements.Store(refinements)
	idx.watermark.Store(watermark)
	if hasPermSection(nsec) {
		// Bijection-validated in BOTH load modes: a permutation that is not a
		// bijection would silently misroute every translated query.
		if err := idx.loadRelabeling(p.i32s(secPerm)); err != nil {
			return nil, err
		}
	}
	if deep {
		if err := idx.CheckInvariants(); err != nil {
			return nil, err
		}
	}
	return idx, nil
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
			return fmt.Sprintf("section %d table entry out of bounds", sectionID(nsec, s))
		}
		if crc32.Checksum(data[off:off+ln], castagnoli) != crc {
			return fmt.Sprintf("section %d payload corrupt", sectionID(nsec, s))
		}
	}
	return "preamble, table or padding corrupt"
}
