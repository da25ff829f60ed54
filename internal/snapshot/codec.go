package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// The section payload codec: fixed-width little-endian primitives,
// length-prefixed strings and flat tables. The writer appends to a growing
// buffer and builds every payload. The reader is the one cursor every
// section decode walks: it hands out fixed-width values (the SPAC section
// and the KWRD strings are decoded element by element) and typed views of
// the flat tables (view), checks the bounds of every access, and records
// the first failure instead of panicking, which is what lets the snapshot
// reader guarantee "corrupt input returns an error" (enforced by
// FuzzSnapshotDecode).

// flatElem is the element type of a flat table: a 4-byte integer (an ID,
// offset or count) or an 8-byte float.
type flatElem interface {
	~int32 | ~float64
}

// sizeOf returns T's size in bytes, 4 or 8.
func sizeOf[T flatElem]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// pad8 appends zero padding up to the next 8-byte boundary.
func (w *writer) pad8() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// putTable appends a flat table element by element, little-endian: the
// layout view reads back.
func putTable[T flatElem](w *writer, vs []T) {
	size := sizeOf[T]()
	for i := range vs {
		p := unsafe.Pointer(&vs[i])
		if size == 8 {
			w.u64(*(*uint64)(p))
		} else {
			w.u32(*(*uint32)(p))
		}
	}
}

type reader struct {
	b   []byte
	off int
	err error
}

// fail records the first decoding failure, wrapped in ErrCorrupt.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil after recording a truncation
// error.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	w := r.b[r.off : r.off+n]
	r.off += n
	return w
}

// view returns the next n elements of a flat table as a []T, or nil after
// recording a failure (and for n == 0). The bound is checked by division,
// so a hostile n cannot overflow it. On little-endian hosts the slice is a
// view of the image itself, with no copy: image bases are 8-aligned (a
// mapping, or FromBytes' aligned copy) and the layout puts every table at
// an offset aligned to its element size, so the alignment check fires only
// on misuse. On big-endian hosts it decodes the little-endian elements
// into a fresh slice instead.
func view[T flatElem](r *reader, n int) []T {
	size := sizeOf[T]()
	if r.err == nil && (n < 0 || n > (len(r.b)-r.off)/size) {
		r.fail("need %d×%dB at offset %d, have %d", n, size, r.off, len(r.b)-r.off)
	}
	b := r.take(n * size)
	if len(b) == 0 {
		return nil
	}
	if !hostLittleEndian {
		// Storing the decoded bit pattern through a same-size pointer
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
		return out
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(size) != 0 {
		r.fail("misaligned %d-byte table at offset %d", size, r.off-len(b))
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

func (r *reader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count32 reads a u32 element count and count64 a u64 one; both validate
// it against the bytes actually remaining (minSize bytes per element), so
// corrupt counts are rejected before any allocation or view is sized from
// them.
func (r *reader) count32(minSize int) int { return r.fits(uint64(r.u32()), minSize) }
func (r *reader) count64(minSize int) int { return r.fits(r.u64(), minSize) }

func (r *reader) fits(n uint64, minSize int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off)/uint64(minSize) {
		r.fail("element count %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	s := r.take(r.count32(1))
	if s == nil {
		return ""
	}
	return string(s)
}

// strs decodes n length-prefixed strings. Each costs at least its 4-byte
// length, so n is checked against the bytes remaining before it sizes the
// slice.
func (r *reader) strs(n int) []string {
	n = r.fits(uint64(n), 4)
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

// pad8 consumes zero padding up to the next 8-byte boundary.
func (r *reader) pad8() {
	if r.err != nil {
		return
	}
	for r.off%8 != 0 {
		if r.off >= len(r.b) || r.b[r.off] != 0 {
			r.fail("bad alignment padding at offset %d", r.off)
			return
		}
		r.off++
	}
}

// done reports the first recorded error, or complains about trailing bytes:
// every section payload must be consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, len(r.b)-r.off)
	}
	return nil
}
