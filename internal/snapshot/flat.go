package snapshot

import (
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"ikrq/internal/graph"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/snapshot/mapping"
)

// This file is the flat container (format v3 on): a section directory up
// front and payloads whose tables are stored little-endian in their
// in-memory layout, each at an offset aligned to its element size, so a
// loader can serve the big distance tables as typed views straight over
// an mmap'd file (see internal/snapshot/mapping and DESIGN.md §13) instead
// of decoding them element by element. Every flat section has one encoder
// and one decoder over its layer's tables — graph.PathFinderTables,
// graph.SkeletonTables, graph.OracleTables and keyword.IndexTables, which
// the layer's Tables method returns and its FromFlat constructor takes, and
// model.DerivedRecord, which Space.ExportDerived returns and
// SpaceFromRecordDerived takes. One reader, engineFromFlat, serves every
// load in one of two trust modes:
//
//   - trusted (OpenEngine over a real OS mapping on a little-endian host):
//     tables are views of the mapping handed to the FromFlat
//     constructors, which keep every structural and index-safety check but
//     skip the per-element value scans (and the bulk-section CRCs) that
//     would fault in every page of the mapping — cold start stays
//     O(pages touched).
//   - untrusted (LoadEngine, heap-backed images, big-endian hosts): every
//     section CRC is verified, the FromFlat value scans run, and the space
//     is rebuilt from SPAC through the model builder, ignoring SPCD.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "IKRQSNAP"
//	8       2     format version (≥ 5)
//	10      2     minimum reader version (4 for this layout)
//	12      2     section count n
//	14      2     reserved, zero
//	16      n×24  directory: tag(4) + CRC-32/IEEE(4) + offset(8) + length(8)
//	then          payloads in directory order; each payload starts at the
//	              next multiple of 8 (gap bytes zero), the file ends exactly
//	              at the last payload's end
const flatMinReader uint16 = 4

// hostLittleEndian gates the zero-copy path: flat tables are stored
// little-endian, so only LE hosts may view them in place. On BE hosts view
// decodes each table into a fresh slice and the reader runs untrusted. A
// variable, not a constant, so tests can drive the copy mode on any host.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// section is one payload of a bake, in directory order.
type section struct {
	tag     string
	payload []byte
}

// writeFlat lays sections out as a flat container on w.
func writeFlat(w io.Writer, sections []section) error {
	var hdr writer
	hdr.buf = append(hdr.buf, Magic...)
	hdr.buf = append(hdr.buf, byte(Version), byte(Version>>8))
	hdr.buf = append(hdr.buf, byte(flatMinReader), byte(flatMinReader>>8))
	hdr.buf = append(hdr.buf, byte(len(sections)), byte(len(sections)>>8))
	hdr.buf = append(hdr.buf, 0, 0) // reserved
	off := uint64(len(hdr.buf) + 24*len(sections))
	off = (off + 7) &^ 7
	for _, s := range sections {
		hdr.buf = append(hdr.buf, s.tag...)
		hdr.u32(crc32.ChecksumIEEE(s.payload))
		hdr.u64(off)
		hdr.u64(uint64(len(s.payload)))
		off = (off + uint64(len(s.payload)) + 7) &^ 7
	}
	hdr.pad8()
	if _, err := w.Write(hdr.buf); err != nil {
		return err
	}
	var zeros [8]byte
	for i, s := range sections {
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
		if i < len(sections)-1 { // the file ends unpadded
			if pad := (8 - len(s.payload)%8) % 8; pad > 0 {
				if _, err := w.Write(zeros[:pad]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// --- flat sections: one encoder and one decoder each ---
//
// A decoder reads its tables through r, which records the first failure;
// decodeSection checks it and that the payload was consumed exactly.

// decodeSection points r at sec's payload and decodes it with decode,
// naming the section in any error. One reader walks every section of a
// load.
func decodeSection[T any](r *reader, sec *flatSection, decode func(r *reader) T) (T, error) {
	*r = reader{b: sec.b}
	t := decode(r)
	if err := r.done(); err != nil {
		var zero T
		return zero, fmt.Errorf("section %s: %w", sec.tag, err)
	}
	return t, nil
}

// encodeDerived lays out the SPCD section: the P2D and D2P CSRs and the
// self-loop table of the space, all flat so the trusted loader can view
// them in place and skip the builder replay entirely (D2P appearing here
// too lets that loader skip even materializing the record's per-door
// lists).
//
//	u64 nParts, u64 nDoors, u64 nEnter, u64 nLeave, u64 nSelf
//	enterOff  (nParts+1)×i32       leaveOff (nParts+1)×i32
//	enterDoors nEnter×i32          leaveDoors nLeave×i32
//	doorEnterOff (nDoors+1)×i32    doorLeaveOff (nDoors+1)×i32
//	doorEnterParts nEnter×i32      doorLeaveParts nLeave×i32
//	selfOff   (nDoors+1)×i32       selfPart nSelf×i32
//	pad to 8                       selfDist nSelf×f64
func encodeDerived(der *model.DerivedRecord) []byte {
	var w writer
	w.u64(uint64(len(der.EnterOff) - 1))
	w.u64(uint64(len(der.SelfLoopOff) - 1))
	w.u64(uint64(len(der.EnterDoors)))
	w.u64(uint64(len(der.LeaveDoors)))
	w.u64(uint64(len(der.SelfLoopPart)))
	putTable(&w, der.EnterOff)
	putTable(&w, der.LeaveOff)
	putTable(&w, der.EnterDoors)
	putTable(&w, der.LeaveDoors)
	putTable(&w, der.DoorEnterOff)
	putTable(&w, der.DoorLeaveOff)
	putTable(&w, der.DoorEnterParts)
	putTable(&w, der.DoorLeaveParts)
	putTable(&w, der.SelfLoopOff)
	putTable(&w, der.SelfLoopPart)
	w.pad8()
	putTable(&w, der.SelfLoopDist)
	return w.buf
}

func decodeDerived(r *reader) *model.DerivedRecord {
	nP := r.count64(8) // each partition costs ≥ two 4-byte CSR offsets
	nD, nE, nL, nS := int(r.u64()), int(r.u64()), int(r.u64()), int(r.u64())
	if r.err == nil && nD > 1<<28 {
		r.fail("implausible derived-space door count %d", nD)
	}
	der := &model.DerivedRecord{}
	der.EnterOff = view[int32](r, nP+1)
	der.LeaveOff = view[int32](r, nP+1)
	der.EnterDoors = view[model.DoorID](r, nE)
	der.LeaveDoors = view[model.DoorID](r, nL)
	der.DoorEnterOff = view[int32](r, nD+1)
	der.DoorLeaveOff = view[int32](r, nD+1)
	der.DoorEnterParts = view[model.PartitionID](r, nE)
	der.DoorLeaveParts = view[model.PartitionID](r, nL)
	der.SelfLoopOff = view[int32](r, nD+1)
	der.SelfLoopPart = view[model.PartitionID](r, nS)
	r.pad8()
	der.SelfLoopDist = view[float64](r, nS)
	return der
}

// encodeKeywords lays out the KWRD section:
//
//	u64 nIWords, u64 nTWords, u64 nParts, u64 nEdges
//	i2tOff (nIWords+1)×i32, pad to 8
//	i2tVals nEdges×i32, pad to 8
//	p2i nParts×i32, pad to 8
//	the i-word then the t-word spellings, each a u32 length and its bytes
func encodeKeywords(t keyword.IndexTables) []byte {
	var w writer
	w.u64(uint64(len(t.IWords)))
	w.u64(uint64(len(t.TWords)))
	w.u64(uint64(len(t.P2I)))
	w.u64(uint64(len(t.I2TVals)))
	putTable(&w, t.I2TOff)
	w.pad8()
	putTable(&w, t.I2TVals)
	w.pad8()
	putTable(&w, t.P2I)
	w.pad8()
	for _, s := range t.IWords {
		w.str(s)
	}
	for _, s := range t.TWords {
		w.str(s)
	}
	return w.buf
}

func decodeKeywords(r *reader) (t keyword.IndexTables) {
	nI := r.count64(4) // each i-word costs ≥ a 4-byte row offset
	nT, nP, nE := int(r.u64()), int(r.u64()), int(r.u64())
	t.I2TOff = view[int32](r, nI+1)
	r.pad8()
	t.I2TVals = view[keyword.TWordID](r, nE)
	r.pad8()
	t.P2I = view[keyword.IWordID](r, nP)
	r.pad8()
	t.IWords = r.strs(nI)
	t.TWords = r.strs(nT)
	return t
}

// encodePathFinder lays out the PATH section:
//
//	u64 nStates, u64 nArcs
//	states nStates×(i32 door, i32 partition), arcCounts nStates×i32, pad to 8
//	arcTo nArcs×i32, pad to 8
//	arcW nArcs×f64
func encodePathFinder(t graph.PathFinderTables) []byte {
	var w writer
	w.u64(uint64(len(t.ArcCounts)))
	w.u64(uint64(len(t.ArcTo)))
	putTable(&w, t.States)
	putTable(&w, t.ArcCounts)
	w.pad8()
	putTable(&w, t.ArcTo)
	w.pad8()
	putTable(&w, t.ArcW)
	return w.buf
}

func decodePathFinder(r *reader) (t graph.PathFinderTables) {
	nS := r.count64(8) // a state is an 8-byte (door, part) pair
	nA := int(r.u64())
	t.States = view[int32](r, 2*nS)
	t.ArcCounts = view[int32](r, nS)
	r.pad8()
	t.ArcTo = view[int32](r, nA)
	r.pad8()
	t.ArcW = view[float64](r, nA)
	return t
}

// encodeSkeleton lays out the SKEL section: u64 n, the n staircase doors
// as i32, padding to 8, and δs2s as n² f64 row-major.
func encodeSkeleton(t graph.SkeletonTables) []byte {
	var w writer
	w.u64(uint64(len(t.Doors)))
	putTable(&w, t.Doors)
	w.pad8()
	putTable(&w, t.Dist)
	return w.buf
}

func decodeSkeleton(r *reader) (t graph.SkeletonTables) {
	n := r.count64(4)
	if r.err == nil && n > 1<<20 {
		r.fail("skeleton door count %d is implausible", n)
	}
	t.Doors = view[model.DoorID](r, n)
	r.pad8()
	t.Dist = view[float64](r, n*n)
	return t
}

// encodeOracle lays out the ORCL section:
//
//	u64 nHubs, u64 nHubOff, u64 nLabels
//	hubs nHubs×i32, pad to 8
//	hubOff nHubOff×i32, pad to 8
//	toHub nLabels×f64, fromHub nLabels×f64, hubDist nHubs²×f64
func encodeOracle(t graph.OracleTables) []byte {
	var w writer
	w.u64(uint64(len(t.Hubs)))
	w.u64(uint64(len(t.HubOff)))
	w.u64(uint64(len(t.ToHub)))
	putTable(&w, t.Hubs)
	w.pad8()
	putTable(&w, t.HubOff)
	w.pad8()
	putTable(&w, t.ToHub)
	putTable(&w, t.FromHub)
	putTable(&w, t.HubDist)
	return w.buf
}

func decodeOracle(r *reader) (t graph.OracleTables) {
	nH := r.count64(4)
	nOff, nT := int(r.u64()), int(r.u64())
	if r.err == nil && nH > 1<<20 {
		r.fail("oracle hub count %d is implausible", nH)
	}
	t.Hubs = view[graph.StateID](r, nH)
	r.pad8()
	t.HubOff = view[int32](r, nOff)
	r.pad8()
	t.ToHub = view[float64](r, nT)
	t.FromHub = view[float64](r, nT)
	t.HubDist = view[float64](r, nH*nH)
	return t
}

// --- structural parse (both trust modes) ---

// flatSection is one directory entry with its resolved payload window.
type flatSection struct {
	tag string
	crc uint32
	b   []byte
}

// flatImage is a structurally validated flat container: directory parsed,
// offsets/alignment/gaps checked, known sections indexed by tag. Payload
// CRCs and contents are NOT yet verified.
type flatImage struct {
	byTag map[string]*flatSection
	all   []flatSection
}

func knownTag(tag string) bool {
	switch tag {
	case tagSpace, tagDerived, tagKeywords, tagPathFinder, tagSkeleton, tagOracle:
		return true
	}
	return false
}

// parseFlat validates the header, directory and payload geometry. It
// touches only the header, the directory and the (≤7-byte) alignment gaps —
// never the payload bodies.
func parseFlat(b []byte) (*flatImage, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("%w: %d-byte stream is shorter than the header", ErrCorrupt, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	// The version goes first: a v1 header has no min-reader field, and its
	// section count would otherwise be misread as one.
	ver := uint16(b[8]) | uint16(b[9])<<8
	if ver < MinDecodable {
		return nil, fmt.Errorf("%w: snapshot has version %d, this build reads versions %d–%d; re-bake it with this build",
			ErrVersion, ver, MinDecodable, Version)
	}
	minReader := uint16(b[10]) | uint16(b[11])<<8
	if minReader > Version {
		return nil, fmt.Errorf("%w: snapshot has version %d and requires a reader of version ≥ %d; this build reads versions %d–%d",
			ErrVersion, ver, minReader, MinDecodable, Version)
	}
	if minReader < flatMinReader {
		// Min-reader ≤ 2 declared the retired sequential layout, 3 the flat
		// layout whose dense KoE* matrix section carried a parent table.
		return nil, fmt.Errorf("%w: snapshot has version %d with min-reader %d (a retired layout); re-bake it with this build",
			ErrVersion, ver, minReader)
	}
	skipUnknown := ver > Version
	n := int(uint16(b[12]) | uint16(b[13])<<8)
	if b[14] != 0 || b[15] != 0 {
		return nil, fmt.Errorf("%w: reserved header bytes are not zero", ErrCorrupt)
	}
	dirEnd := 16 + 24*n
	if dirEnd > len(b) {
		return nil, fmt.Errorf("%w: directory of %d sections does not fit the %d-byte stream", ErrCorrupt, n, len(b))
	}
	img := &flatImage{byTag: make(map[string]*flatSection, n)}
	end := dirEnd
	for i := 0; i < n; i++ {
		e := b[16+24*i:]
		tag := string(e[:4])
		crc := uint32(e[4]) | uint32(e[5])<<8 | uint32(e[6])<<16 | uint32(e[7])<<24
		off := uint64(e[8]) | uint64(e[9])<<8 | uint64(e[10])<<16 | uint64(e[11])<<24 |
			uint64(e[12])<<32 | uint64(e[13])<<40 | uint64(e[14])<<48 | uint64(e[15])<<56
		length := uint64(e[16]) | uint64(e[17])<<8 | uint64(e[18])<<16 | uint64(e[19])<<24 |
			uint64(e[20])<<32 | uint64(e[21])<<40 | uint64(e[22])<<48 | uint64(e[23])<<56
		want := (uint64(end) + 7) &^ 7
		if off != want {
			return nil, fmt.Errorf("%w: section %s at offset %d, want %d", ErrCorrupt, tag, off, want)
		}
		// The aligned offset may land past the end of a truncated stream;
		// catch it before the subtraction below underflows.
		if off > uint64(len(b)) {
			return nil, fmt.Errorf("%w: section %s starts at %d past the %d-byte stream", ErrCorrupt, tag, off, len(b))
		}
		if length > uint64(len(b))-off {
			return nil, fmt.Errorf("%w: section %s claims %d bytes, %d remain", ErrCorrupt, tag, length, uint64(len(b))-off)
		}
		for _, pad := range b[end:off] {
			if pad != 0 {
				return nil, fmt.Errorf("%w: nonzero alignment gap before section %s", ErrCorrupt, tag)
			}
		}
		if !knownTag(tag) && !skipUnknown {
			return nil, fmt.Errorf("%w: unknown section %q", ErrCorrupt, tag)
		}
		if _, dup := img.byTag[tag]; dup {
			return nil, fmt.Errorf("%w: duplicate section %s", ErrCorrupt, tag)
		}
		img.all = append(img.all, flatSection{tag: tag, crc: crc, b: b[off : off+length]})
		img.byTag[tag] = &img.all[len(img.all)-1]
		end = int(off + length)
	}
	if end != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(b)-end)
	}
	for _, tag := range []string{tagSpace, tagKeywords, tagPathFinder, tagSkeleton} {
		if img.byTag[tag] == nil {
			return nil, fmt.Errorf("%w: missing required section", ErrCorrupt)
		}
	}
	return img, nil
}

func (s *flatSection) checkCRC() error {
	if crc32.ChecksumIEEE(s.b) != s.crc {
		return fmt.Errorf("%w: section %s", ErrChecksum, s.tag)
	}
	return nil
}

// --- assembly ---

// engineFromFlat assembles an engine whose tables are views of the image b
// (which must outlive the engine — the caller wires the lifetime via
// Engine.SetMapping). It returns the engine plus the number of table bytes
// served from the image rather than the heap.
//
// trusted picks the validation policy. Trusted loads CRC-verify only the
// sections read in full anyway (space, keywords, pathfinder — their
// contents are materialized or validated element by element), adopt the
// baked SPCD structures, and skip the FromFlat value scans: checksumming
// or scanning the bulk tables (derived space, skeleton, oracle)
// would fault in every page of the mapping. Their CRCs are still written at
// bake time and verified by untrusted loads and the fuzz gate (see
// DESIGN.md §13). Untrusted loads verify every section CRC, run every
// value scan, and rebuild the space from SPAC through the model builder,
// CRC-checking SPCD but ignoring its contents.
func engineFromFlat(b []byte, trusted bool) (*search.Engine, int64, error) {
	img, err := parseFlat(b)
	if err != nil {
		return nil, 0, err
	}
	for i := range img.all {
		sec := &img.all[i]
		if trusted && sec.tag != tagSpace && sec.tag != tagKeywords && sec.tag != tagPathFinder {
			continue // a bulk section: checksumming it faults in every page
		}
		if err := sec.checkCRC(); err != nil {
			return nil, 0, err
		}
	}

	// With the baked derived structures the space comes up without the
	// geometry-heavy builder replay — the largest single cost of a cold
	// start — and the lite SPAC decode skips the per-door lists SPCD
	// already carries. Untrusted loads (and streams from writers that omit
	// SPCD) replay the full space record through the validating builder.
	r := new(reader)
	lite := trusted && img.byTag[tagDerived] != nil
	srec, err := decodeSection(r, img.byTag[tagSpace], func(r *reader) *model.SpaceRecord {
		return decodeSpace(r, lite)
	})
	if err != nil {
		return nil, 0, err
	}
	var s *model.Space
	if lite {
		der, derr := decodeSection(r, img.byTag[tagDerived], decodeDerived)
		if derr != nil {
			return nil, 0, derr
		}
		s, err = model.SpaceFromRecordDerived(srec, der)
	} else {
		s, err = model.SpaceFromRecord(srec)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: restoring space: %w", ErrCorrupt, err)
	}

	kt, err := decodeSection(r, img.byTag[tagKeywords], decodeKeywords)
	if err != nil {
		return nil, 0, err
	}
	x, err := keyword.IndexFromFlat(kt)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: restoring keyword index: %w", ErrCorrupt, err)
	}

	pt, err := decodeSection(r, img.byTag[tagPathFinder], decodePathFinder)
	if err != nil {
		return nil, 0, err
	}
	pf, err := graph.PathFinderFromFlat(s, pt)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: restoring state graph: %w", ErrCorrupt, err)
	}

	st, err := decodeSection(r, img.byTag[tagSkeleton], decodeSkeleton)
	if err != nil {
		return nil, 0, err
	}
	sk, err := graph.SkeletonFromFlat(s, st, trusted)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: restoring skeleton: %w", ErrCorrupt, err)
	}
	// The tables the engine keeps serving from the image.
	aliased := int64(4*(len(kt.I2TVals)+len(kt.P2I)) + 8*len(st.Dist))

	var ds graph.DistanceSource
	if sec := img.byTag[tagOracle]; sec != nil {
		ot, err := decodeSection(r, sec, decodeOracle)
		if err != nil {
			return nil, 0, err
		}
		orc, err := graph.OracleFromFlat(pf, ot, trusted)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: restoring KoE* oracle: %w", ErrCorrupt, err)
		}
		ds = orc
		aliased += int64(8 * (len(ot.ToHub) + len(ot.FromHub) + len(ot.HubDist)))
	}

	e, err := search.NewEngineFromParts(s, x, pf, sk, ds)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return e, aliased, nil
}

// EngineFromMapping assembles a serving engine over a loaded snapshot
// image. The trust mode follows from what the image is: only a real OS
// mapping on a little-endian host loads trusted — bulk tables become views
// over the mapping, the engine adopts the mapping's lifetime (Engine.Close
// releases it), and search.MemStats splits resident bytes into heap vs
// mapped. A heap-backed image (mmap unsupported or failed, FromBytes) has
// already paid O(file) to load, so it loads untrusted with full CRC
// verification and value scans, its views pinning the buffer. On
// big-endian hosts every table is decoded into fresh slices, after which
// the image is no longer needed and is closed.
func EngineFromMapping(m *mapping.Mapping) (*search.Engine, error) {
	trusted := m.Mapped() && hostLittleEndian
	e, aliased, err := engineFromFlat(m.Bytes(), trusted)
	if err != nil {
		return nil, err
	}
	switch {
	case trusted:
		e.SetMapping(m.Len(), aliased, m.Close)
	case hostLittleEndian:
		// Nothing is page-cache shared, so residency accounting stays
		// all-heap.
		e.SetMapping(0, 0, m.Close)
	default:
		_ = m.Close()
	}
	return e, nil
}

// OpenEngine loads the snapshot at path and assembles a serving engine,
// mmap'ing it where the platform supports it so cold start is O(pages
// touched) and co-resident processes share the page cache. The engine owns
// the underlying mapping: call Engine.Close once it is no longer serving
// (the serving registry does this on eviction and swap).
func OpenEngine(path string) (*search.Engine, error) {
	m, err := mapping.OpenFile(path)
	if err != nil {
		return nil, err
	}
	e, err := EngineFromMapping(m)
	if err != nil {
		_ = m.Close()
		return nil, err
	}
	return e, nil
}
