package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The section payload codec: fixed-width little-endian primitives plus
// length-prefixed strings. The writer appends to a growing buffer and
// builds every payload. The reader is the one cursor every section parse
// walks: it hands out fixed-width values (the SPAC section and the KWRD
// string blob are decoded element by element) and typed windows over the
// flat sections' bulk arrays, checks the bounds of every access, and
// records the first failure instead of panicking, which is what lets the
// snapshot reader guarantee "corrupt input returns an error" (enforced by
// FuzzSnapshotDecode).

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

// arr returns the window of the next n elements of size bytes each, or nil
// after recording a truncation error. The bound is checked by division, so
// a hostile n cannot overflow it.
func (r *reader) arr(n, size int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || size <= 0 || n > (len(r.b)-r.off)/size {
		r.fail("need %d×%dB at offset %d, have %d", n, size, r.off, len(r.b)-r.off)
		return nil
	}
	w := r.b[r.off : r.off+n*size]
	r.off += n * size
	return w
}

// take returns the next n bytes.
func (r *reader) take(n int) []byte { return r.arr(n, 1) }

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
// corrupt counts are rejected before any allocation or window is sized
// from them.
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

// rest returns everything left.
func (r *reader) rest() []byte {
	if r.err != nil {
		return nil
	}
	w := r.b[r.off:]
	r.off = len(r.b)
	return w
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
