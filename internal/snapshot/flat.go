package snapshot

import (
	"encoding/binary"
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

// This file is the v3 flat container: a section directory up front and
// payloads whose bulk arrays are stored little-endian in their in-memory
// layout, 8-byte-aligned, so a loader can serve the big distance tables as
// views straight over an mmap'd file (see internal/snapshot/mapping and
// DESIGN.md §13) instead of decoding them element by element. One reader,
// engineFromFlat, serves every load in one of two trust modes:
//
//   - trusted (OpenEngine over a real OS mapping on a little-endian host):
//     bulk tables are aliased in place and handed to the FromFlat
//     constructors, which keep every structural and index-safety check but
//     skip the per-element value scans (and the bulk-section CRCs) that
//     would fault in every page of the mapping — cold start stays
//     O(pages touched).
//   - untrusted (LoadEngine, heap-backed images, big-endian hosts): every
//     section CRC is verified, the FromFlat value scans run, and the space
//     is rebuilt from SPAC through the model builder, ignoring SPCD.
//
// v3 layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "IKRQSNAP"
//	8       2     format version (≥ 3)
//	10      2     minimum reader version (3 for this layout)
//	12      2     section count n
//	14      2     reserved, zero
//	16      n×24  directory: tag(4) + CRC-32/IEEE(4) + offset(8) + length(8)
//	then          payloads in directory order; each payload starts at the
//	              next multiple of 8 (gap bytes zero), the file ends exactly
//	              at the last payload's end
const v3MinReader uint16 = 3

// hostLittleEndian gates the zero-copy path: v3 arrays are stored
// little-endian, so only LE hosts may alias them. On BE hosts alias decodes
// each array into a fresh slice and the reader runs untrusted. A variable,
// not a constant, so tests can drive the copy mode on any host.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// EncodeV3 writes snap to w in the v3 flat container format.
func EncodeV3(w io.Writer, snap *Snapshot) error {
	if snap == nil || snap.Space == nil || snap.Keywords == nil ||
		snap.PathFinder == nil || snap.Skeleton == nil {
		return fmt.Errorf("snapshot: encode requires space, keyword, pathfinder and skeleton records")
	}
	type section struct {
		tag     string
		payload []byte
	}
	der := snap.Derived
	if der == nil {
		// Rebuild once at bake time so the loader never has to: the derived
		// structures are a pure function of the space record.
		s, err := model.SpaceFromRecord(snap.Space)
		if err != nil {
			return fmt.Errorf("snapshot: deriving space structures: %w", err)
		}
		der = s.ExportDerived()
	}
	sections := []section{
		{tagSpace, encodeSpace(snap.Space)},
		{tagDerived, encodeDerivedFlat(der)},
		{tagKeywords, encodeKeywordsFlat(snap.Keywords)},
		{tagPathFinder, encodePathFinderFlat(snap.PathFinder)},
		{tagSkeleton, encodeSkeletonFlat(snap.Skeleton)},
	}
	if snap.Matrix != nil {
		sections = append(sections, section{tagMatrix, encodeMatrixFlat(snap.Matrix)})
	}
	if snap.Oracle != nil {
		sections = append(sections, section{tagOracle, encodeOracleFlat(snap.Oracle)})
	}

	var hdr writer
	hdr.buf = append(hdr.buf, Magic...)
	hdr.buf = append(hdr.buf, byte(Version), byte(Version>>8))
	hdr.buf = append(hdr.buf, byte(v3MinReader), byte(v3MinReader>>8))
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

// --- payload encoders ---

func (w *writer) pad8() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) i32s(vs []int32) {
	for _, v := range vs {
		w.i32(v)
	}
}

func (w *writer) f64s(vs []float64) {
	for _, v := range vs {
		w.f64(v)
	}
}

// encodeDerivedFlat lays out the SPCD section: the P2D and D2P CSRs and the
// self-loop table of the space, all native flat so the zero-copy loader can
// alias them and skip the builder replay entirely (D2P appearing here too
// lets that loader skip even materializing the record's per-door lists).
//
//	u64 nParts, u64 nDoors, u64 nEnter, u64 nLeave, u64 nSelf
//	enterOff  (nParts+1)×i32       leaveOff (nParts+1)×i32
//	enterDoors nEnter×i32          leaveDoors nLeave×i32
//	doorEnterOff (nDoors+1)×i32    doorLeaveOff (nDoors+1)×i32
//	doorEnterParts nEnter×i32      doorLeaveParts nLeave×i32
//	selfOff   (nDoors+1)×i32       selfPart nSelf×i32
//	pad to 8                       selfDist nSelf×f64
func encodeDerivedFlat(der *model.DerivedRecord) []byte {
	var w writer
	w.u64(uint64(len(der.EnterOff) - 1))
	w.u64(uint64(len(der.SelfLoopOff) - 1))
	w.u64(uint64(len(der.EnterDoors)))
	w.u64(uint64(len(der.LeaveDoors)))
	w.u64(uint64(len(der.SelfLoopPart)))
	w.i32s(der.EnterOff)
	w.i32s(der.LeaveOff)
	for _, d := range der.EnterDoors {
		w.i32(int32(d))
	}
	for _, d := range der.LeaveDoors {
		w.i32(int32(d))
	}
	w.i32s(der.DoorEnterOff)
	w.i32s(der.DoorLeaveOff)
	for _, v := range der.DoorEnterParts {
		w.i32(int32(v))
	}
	for _, v := range der.DoorLeaveParts {
		w.i32(int32(v))
	}
	w.i32s(der.SelfLoopOff)
	for _, v := range der.SelfLoopPart {
		w.i32(int32(v))
	}
	w.pad8()
	w.f64s(der.SelfLoopDist)
	return w.buf
}

func encodeKeywordsFlat(rec *keyword.IndexRecord) []byte {
	var w writer
	edges := 0
	for _, row := range rec.I2T {
		edges += len(row)
	}
	w.u64(uint64(len(rec.IWords)))
	w.u64(uint64(len(rec.TWords)))
	w.u64(uint64(len(rec.P2I)))
	w.u64(uint64(edges))
	off := int32(0)
	for _, row := range rec.I2T {
		w.i32(off)
		off += int32(len(row))
	}
	w.i32(off)
	w.pad8()
	for _, row := range rec.I2T {
		for _, t := range row {
			w.i32(int32(t))
		}
	}
	w.pad8()
	for _, v := range rec.P2I {
		w.i32(int32(v))
	}
	w.pad8()
	for _, s := range rec.IWords {
		w.str(s)
	}
	for _, s := range rec.TWords {
		w.str(s)
	}
	return w.buf
}

func encodePathFinderFlat(rec *graph.PathFinderRecord) []byte {
	var w writer
	w.u64(uint64(len(rec.States)))
	w.u64(uint64(len(rec.Arcs)))
	for _, st := range rec.States {
		w.i32(int32(st.Door))
		w.i32(int32(st.Part))
	}
	w.i32s(rec.ArcCounts)
	w.pad8()
	for _, a := range rec.Arcs {
		w.i32(int32(a.To))
	}
	w.pad8()
	for _, a := range rec.Arcs {
		w.f64(a.W)
	}
	return w.buf
}

func encodeSkeletonFlat(rec *graph.SkeletonRecord) []byte {
	var w writer
	w.u64(uint64(len(rec.Doors)))
	for _, d := range rec.Doors {
		w.i32(int32(d))
	}
	w.pad8()
	w.f64s(rec.Dist)
	return w.buf
}

func encodeMatrixFlat(rec *graph.MatrixRecord) []byte {
	var w writer
	w.u64(uint64(rec.N))
	w.f64s(rec.Dist)
	for _, v := range rec.Prev {
		w.i32(int32(v))
	}
	return w.buf
}

func encodeOracleFlat(rec *graph.OracleRecord) []byte {
	var w writer
	w.u64(uint64(len(rec.Hubs)))
	w.u64(uint64(len(rec.HubOff)))
	w.u64(uint64(len(rec.ToHub)))
	for _, h := range rec.Hubs {
		w.i32(int32(h))
	}
	w.pad8()
	w.i32s(rec.HubOff)
	w.pad8()
	w.f64s(rec.ToHub)
	w.f64s(rec.FromHub)
	w.f64s(rec.HubDist)
	return w.buf
}

// --- structural parse (both trust modes) ---

// flatSection is one directory entry with its resolved payload window.
type flatSection struct {
	tag string
	crc uint32
	b   []byte
}

// flatImage is a structurally validated v3 container: directory parsed,
// offsets/alignment/gaps checked, known sections indexed by tag. Payload
// CRCs and contents are NOT yet verified.
type flatImage struct {
	byTag map[string]*flatSection
	all   []flatSection
}

func knownTag(tag string) bool {
	switch tag {
	case tagSpace, tagDerived, tagKeywords, tagPathFinder, tagSkeleton, tagMatrix, tagOracle:
		return true
	}
	return false
}

// parseFlat validates the v3 header, directory and payload geometry. It
// touches only the header, the directory and the (≤7-byte) alignment gaps —
// never the payload bodies.
func parseFlat(b []byte) (*flatImage, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("%w: %d-byte stream is shorter than the v3 header", ErrCorrupt, len(b))
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
	if minReader < v3MinReader {
		// Min-reader ≤ 2 declared the retired sequential layout.
		return nil, fmt.Errorf("%w: snapshot has version %d with min-reader %d (the sequential layout); re-bake it with this build",
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

// fwalk walks a flat payload handing out typed sub-windows with bounds and
// overflow checking; like the codec reader it records the first failure
// instead of panicking.
type fwalk struct {
	b   []byte
	off int
	err error
}

func (f *fwalk) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (f *fwalk) u64() uint64 {
	if f.err != nil {
		return 0
	}
	if f.off+8 > len(f.b) {
		f.fail("need 8 bytes at offset %d, have %d", f.off, len(f.b)-f.off)
		return 0
	}
	b := f.b[f.off:]
	f.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// count reads a u64 element count, guarding it against the bytes remaining
// (minSize per element) so hostile counts cannot size anything.
func (f *fwalk) count(minSize int) int {
	v := f.u64()
	if f.err != nil {
		return 0
	}
	if v > uint64(len(f.b)-f.off)/uint64(minSize) {
		f.fail("element count %d exceeds remaining %d bytes", v, len(f.b)-f.off)
		return 0
	}
	return int(v)
}

// arr returns the window of n elements of size bytes each.
func (f *fwalk) arr(n, size int) []byte {
	if f.err != nil {
		return nil
	}
	if n < 0 || size <= 0 || n > (len(f.b)-f.off)/size {
		f.fail("array of %d×%dB at offset %d exceeds remaining %d bytes", n, size, f.off, len(f.b)-f.off)
		return nil
	}
	w := f.b[f.off : f.off+n*size]
	f.off += n * size
	return w
}

// pad8 consumes zero padding up to the next 8-byte boundary.
func (f *fwalk) pad8() {
	if f.err != nil {
		return
	}
	for f.off%8 != 0 {
		if f.off >= len(f.b) || f.b[f.off] != 0 {
			f.fail("bad alignment padding at offset %d", f.off)
			return
		}
		f.off++
	}
}

// rest returns everything left.
func (f *fwalk) rest() []byte {
	if f.err != nil {
		return nil
	}
	w := f.b[f.off:]
	f.off = len(f.b)
	return w
}

func (f *fwalk) done() error {
	if f.err != nil {
		return f.err
	}
	if f.off != len(f.b) {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, len(f.b)-f.off)
	}
	return nil
}

// --- per-section flat views ---

type spcdFlat struct {
	nP, nD, nE, nL, nS                         int
	enterOff, leaveOff, enterDoors, leaveDoors []byte
	doorEnterOff, doorLeaveOff                 []byte
	doorEnterParts, doorLeaveParts             []byte
	selfOff, selfPart, selfDist                []byte
}

func parseSpcdFlat(b []byte) (*spcdFlat, error) {
	f := &fwalk{b: b}
	v := &spcdFlat{}
	v.nP = f.count(8) // each partition costs ≥ two 4-byte CSR offsets
	v.nD = int(f.u64())
	v.nE = int(f.u64())
	v.nL = int(f.u64())
	v.nS = int(f.u64())
	if f.err == nil && (v.nD < 0 || v.nD > 1<<28 || v.nE < 0 || v.nL < 0 || v.nS < 0) {
		f.fail("negative or implausible derived-space counts")
	}
	v.enterOff = f.arr(v.nP+1, 4)
	v.leaveOff = f.arr(v.nP+1, 4)
	v.enterDoors = f.arr(v.nE, 4)
	v.leaveDoors = f.arr(v.nL, 4)
	v.doorEnterOff = f.arr(v.nD+1, 4)
	v.doorLeaveOff = f.arr(v.nD+1, 4)
	v.doorEnterParts = f.arr(v.nE, 4)
	v.doorLeaveParts = f.arr(v.nL, 4)
	v.selfOff = f.arr(v.nD+1, 4)
	v.selfPart = f.arr(v.nS, 4)
	f.pad8()
	v.selfDist = f.arr(v.nS, 8)
	if err := f.done(); err != nil {
		return nil, err
	}
	return v, nil
}

type kwrdFlat struct {
	nI, nT, nP, nE             int
	i2tOff, i2tVals, p2i, strs []byte
}

func parseKwrdFlat(b []byte) (*kwrdFlat, error) {
	f := &fwalk{b: b}
	v := &kwrdFlat{}
	v.nI = f.count(4) // each i-word costs ≥ a 4-byte row offset
	v.nT = int(f.u64())
	v.nP = int(f.u64())
	v.nE = int(f.u64())
	if f.err == nil && (v.nT < 0 || v.nP < 0 || v.nE < 0) {
		f.fail("negative keyword counts")
	}
	v.i2tOff = f.arr(v.nI+1, 4)
	f.pad8()
	v.i2tVals = f.arr(v.nE, 4)
	f.pad8()
	v.p2i = f.arr(v.nP, 4)
	f.pad8()
	v.strs = f.rest()
	if err := f.done(); err != nil {
		return nil, err
	}
	return v, nil
}

type pathFlat struct {
	nS, nA                         int
	states, arcCounts, arcTo, arcW []byte
}

func parsePathFlat(b []byte) (*pathFlat, error) {
	f := &fwalk{b: b}
	v := &pathFlat{}
	v.nS = f.count(8) // a state is an 8-byte (door, part) pair
	v.nA = int(f.u64())
	if f.err == nil && v.nA < 0 {
		f.fail("negative arc count")
	}
	v.states = f.arr(v.nS, 8)
	v.arcCounts = f.arr(v.nS, 4)
	f.pad8()
	v.arcTo = f.arr(v.nA, 4)
	f.pad8()
	v.arcW = f.arr(v.nA, 8)
	if err := f.done(); err != nil {
		return nil, err
	}
	return v, nil
}

type skelFlat struct {
	n           int
	doors, dist []byte
}

func parseSkelFlat(b []byte) (*skelFlat, error) {
	f := &fwalk{b: b}
	v := &skelFlat{}
	v.n = f.count(4)
	if f.err == nil && v.n > 1<<20 {
		f.fail("skeleton door count %d is implausible", v.n)
	}
	v.doors = f.arr(v.n, 4)
	f.pad8()
	v.dist = f.arr(v.n*v.n, 8)
	if err := f.done(); err != nil {
		return nil, err
	}
	return v, nil
}

type matxFlat struct {
	n          int
	dist, prev []byte
}

func parseMatxFlat(b []byte) (*matxFlat, error) {
	f := &fwalk{b: b}
	v := &matxFlat{}
	v.n = int(f.u64())
	if f.err == nil && (v.n < 0 || v.n > 1<<20 || (v.n > 0 && v.n*v.n > (len(b)-8)/12)) {
		f.fail("matrix dimension %d does not fit the payload", v.n)
	}
	v.dist = f.arr(v.n*v.n, 8)
	// The prev table ends the section unpadded: the payload is 8+12n² bytes,
	// which is not 8-aligned for odd n, and the container pads between
	// sections, not inside them.
	v.prev = f.arr(v.n*v.n, 4)
	if err := f.done(); err != nil {
		return nil, err
	}
	return v, nil
}

type orclFlat struct {
	nH, nOff, nT                          int
	hubs, hubOff, toHub, fromHub, hubDist []byte
}

func parseOrclFlat(b []byte) (*orclFlat, error) {
	f := &fwalk{b: b}
	v := &orclFlat{}
	v.nH = f.count(4)
	v.nOff = int(f.u64())
	v.nT = int(f.u64())
	if f.err == nil && (v.nOff < 0 || v.nT < 0 || v.nH > 1<<20) {
		f.fail("oracle counts %d/%d/%d are implausible", v.nH, v.nOff, v.nT)
	}
	v.hubs = f.arr(v.nH, 4)
	f.pad8()
	v.hubOff = f.arr(v.nOff, 4)
	f.pad8()
	v.toHub = f.arr(v.nT, 8)
	v.fromHub = f.arr(v.nT, 8)
	v.hubDist = f.arr(v.nH*v.nH, 8)
	if err := f.done(); err != nil {
		return nil, err
	}
	return v, nil
}

// --- assembly ---

// decodeStrings decodes n length-prefixed strings from a codec-style blob.
func decodeStrings(r *reader, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

// alias returns a window of the image as a []T. On little-endian hosts it
// reinterprets the bytes in place without copying: the caller guarantees
// the window was produced by fwalk.arr(n, sizeof(T)), and the alignment
// recheck guards the construction (mapping bases are 8-aligned and flat
// arrays sit at 8-aligned offsets, so it only fires on misuse). On
// big-endian hosts it decodes the little-endian elements into a fresh
// slice instead.
func alias[T any](b []byte, n int) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	var t T
	size, align := int(unsafe.Sizeof(t)), uintptr(unsafe.Alignof(t))
	if len(b) < n*size {
		return nil, fmt.Errorf("%w: %d-byte window cannot hold %d elements", ErrCorrupt, len(b), n)
	}
	if !hostLittleEndian {
		// Every flat element type is a 4- or 8-byte integer or float, so
		// storing the decoded bit pattern through a same-size pointer
		// yields the native value.
		out := make([]T, n)
		for i := range out {
			p := unsafe.Pointer(&out[i])
			if size == 8 {
				*(*uint64)(p) = binary.LittleEndian.Uint64(b[8*i:])
			} else {
				*(*uint32)(p) = binary.LittleEndian.Uint32(b[4*i:])
			}
		}
		return out, nil
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(b)))%align != 0 {
		return nil, fmt.Errorf("%w: misaligned flat array", ErrCorrupt)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
}

// engineFromFlat assembles an engine whose bulk tables are views over the
// image b (which must outlive the engine — the caller wires the lifetime
// via Engine.SetMapping). It returns the engine plus the number of table
// bytes served from the image rather than the heap.
//
// trusted picks the validation policy. Trusted loads CRC-verify only the
// sections read in full anyway (space, keywords, pathfinder — their
// contents are materialized or validated element by element), adopt the
// baked SPCD structures, and skip the FromFlat value scans: checksumming
// or scanning the bulk tables (derived space, skeleton, matrix, oracle)
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
	if !trusted {
		for i := range img.all {
			if err := img.all[i].checkCRC(); err != nil {
				return nil, 0, err
			}
		}
	}
	var aliased int64

	spac := img.byTag[tagSpace]
	if trusted {
		if err := spac.checkCRC(); err != nil {
			return nil, 0, err
		}
	}
	var s *model.Space
	if sec := img.byTag[tagDerived]; trusted && sec != nil {
		// The baked derived structures let the space come up without the
		// geometry-heavy builder replay — the largest single cost of a cold
		// start. The CSR windows alias the mapping directly, and the lite
		// SPAC decode skips the per-door lists SPCD already carries.
		srec, err := decodeSpaceMode(spac.b, true)
		if err != nil {
			return nil, 0, fmt.Errorf("section %s: %w", tagSpace, err)
		}
		dv, err := parseSpcdFlat(sec.b)
		if err != nil {
			return nil, 0, fmt.Errorf("section %s: %w", tagDerived, err)
		}
		der := &model.DerivedRecord{}
		if der.EnterOff, err = alias[int32](dv.enterOff, dv.nP+1); err != nil {
			return nil, 0, err
		}
		if der.LeaveOff, err = alias[int32](dv.leaveOff, dv.nP+1); err != nil {
			return nil, 0, err
		}
		if der.EnterDoors, err = alias[model.DoorID](dv.enterDoors, dv.nE); err != nil {
			return nil, 0, err
		}
		if der.LeaveDoors, err = alias[model.DoorID](dv.leaveDoors, dv.nL); err != nil {
			return nil, 0, err
		}
		if der.DoorEnterOff, err = alias[int32](dv.doorEnterOff, dv.nD+1); err != nil {
			return nil, 0, err
		}
		if der.DoorLeaveOff, err = alias[int32](dv.doorLeaveOff, dv.nD+1); err != nil {
			return nil, 0, err
		}
		if der.DoorEnterParts, err = alias[model.PartitionID](dv.doorEnterParts, dv.nE); err != nil {
			return nil, 0, err
		}
		if der.DoorLeaveParts, err = alias[model.PartitionID](dv.doorLeaveParts, dv.nL); err != nil {
			return nil, 0, err
		}
		if der.SelfLoopOff, err = alias[int32](dv.selfOff, dv.nD+1); err != nil {
			return nil, 0, err
		}
		if der.SelfLoopPart, err = alias[model.PartitionID](dv.selfPart, dv.nS); err != nil {
			return nil, 0, err
		}
		if der.SelfLoopDist, err = alias[float64](dv.selfDist, dv.nS); err != nil {
			return nil, 0, err
		}
		if s, err = model.SpaceFromRecordDerived(srec, der); err != nil {
			return nil, 0, fmt.Errorf("%w: restoring space: %w", ErrCorrupt, err)
		}
	} else {
		// Untrusted loads (and v3 streams from writers that omit SPCD)
		// replay the full space record through the validating builder.
		srec, err := decodeSpaceMode(spac.b, false)
		if err != nil {
			return nil, 0, fmt.Errorf("section %s: %w", tagSpace, err)
		}
		if s, err = model.SpaceFromRecord(srec); err != nil {
			return nil, 0, fmt.Errorf("%w: restoring space: %w", ErrCorrupt, err)
		}
	}

	kws := img.byTag[tagKeywords]
	if trusted {
		if err := kws.checkCRC(); err != nil {
			return nil, 0, err
		}
	}
	kw, err := parseKwrdFlat(kws.b)
	if err != nil {
		return nil, 0, fmt.Errorf("section %s: %w", tagKeywords, err)
	}
	sr := &reader{b: kw.strs}
	iwords := decodeStrings(sr, kw.nI)
	twords := decodeStrings(sr, kw.nT)
	if err := sr.done(); err != nil {
		return nil, 0, fmt.Errorf("section %s: %w", tagKeywords, err)
	}
	i2tOff, err := alias[int32](kw.i2tOff, kw.nI+1)
	if err != nil {
		return nil, 0, err
	}
	i2tVals, err := alias[keyword.TWordID](kw.i2tVals, kw.nE)
	if err != nil {
		return nil, 0, err
	}
	p2i, err := alias[keyword.IWordID](kw.p2i, kw.nP)
	if err != nil {
		return nil, 0, err
	}
	x, err := keyword.IndexFromFlat(iwords, twords, i2tOff, i2tVals, p2i)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: restoring keyword index: %w", ErrCorrupt, err)
	}
	aliased += int64(len(kw.i2tVals) + len(kw.p2i))

	ps := img.byTag[tagPathFinder]
	if trusted {
		if err := ps.checkCRC(); err != nil {
			return nil, 0, err
		}
	}
	pv, err := parsePathFlat(ps.b)
	if err != nil {
		return nil, 0, fmt.Errorf("section %s: %w", tagPathFinder, err)
	}
	states, err := alias[int32](pv.states, 2*pv.nS)
	if err != nil {
		return nil, 0, err
	}
	arcCounts, err := alias[int32](pv.arcCounts, pv.nS)
	if err != nil {
		return nil, 0, err
	}
	arcTo, err := alias[int32](pv.arcTo, pv.nA)
	if err != nil {
		return nil, 0, err
	}
	arcW, err := alias[float64](pv.arcW, pv.nA)
	if err != nil {
		return nil, 0, err
	}
	pf, err := graph.PathFinderFromFlat(s, states, arcCounts, arcTo, arcW)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: restoring state graph: %w", ErrCorrupt, err)
	}

	sv, err := parseSkelFlat(img.byTag[tagSkeleton].b)
	if err != nil {
		return nil, 0, fmt.Errorf("section %s: %w", tagSkeleton, err)
	}
	doors, err := alias[int32](sv.doors, sv.n)
	if err != nil {
		return nil, 0, err
	}
	dist, err := alias[float64](sv.dist, sv.n*sv.n)
	if err != nil {
		return nil, 0, err
	}
	sk, err := graph.SkeletonFromFlat(s, doors, dist, trusted)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: restoring skeleton: %w", ErrCorrupt, err)
	}
	aliased += int64(len(sv.dist))

	var mat *graph.Matrix
	if sec := img.byTag[tagMatrix]; sec != nil {
		mv, err := parseMatxFlat(sec.b)
		if err != nil {
			return nil, 0, fmt.Errorf("section %s: %w", tagMatrix, err)
		}
		mdist, err := alias[float64](mv.dist, mv.n*mv.n)
		if err != nil {
			return nil, 0, err
		}
		mprev, err := alias[graph.StateID](mv.prev, mv.n*mv.n)
		if err != nil {
			return nil, 0, err
		}
		mat, err = graph.MatrixFromFlat(pf, mv.n, mdist, mprev, trusted)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: restoring KoE* matrix: %w", ErrCorrupt, err)
		}
		aliased += int64(len(mv.dist) + len(mv.prev))
	}

	var orc *graph.Oracle
	if sec := img.byTag[tagOracle]; sec != nil {
		ov, err := parseOrclFlat(sec.b)
		if err != nil {
			return nil, 0, fmt.Errorf("section %s: %w", tagOracle, err)
		}
		hubs, err := alias[graph.StateID](ov.hubs, ov.nH)
		if err != nil {
			return nil, 0, err
		}
		hubOff, err := alias[int32](ov.hubOff, ov.nOff)
		if err != nil {
			return nil, 0, err
		}
		toHub, err := alias[float64](ov.toHub, ov.nT)
		if err != nil {
			return nil, 0, err
		}
		fromHub, err := alias[float64](ov.fromHub, ov.nT)
		if err != nil {
			return nil, 0, err
		}
		hubDist, err := alias[float64](ov.hubDist, ov.nH*ov.nH)
		if err != nil {
			return nil, 0, err
		}
		orc, err = graph.OracleFromFlat(pf, hubs, hubOff, toHub, fromHub, hubDist, trusted)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: restoring KoE* oracle: %w", ErrCorrupt, err)
		}
		aliased += int64(len(ov.toHub) + len(ov.fromHub) + len(ov.hubDist))
	}

	e, err := search.NewEngineFromParts(s, x, pf, sk, mat, orc)
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
