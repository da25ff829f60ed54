package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The section payload codec: fixed-width little-endian primitives plus
// length-prefixed strings. The writer appends to a growing buffer and
// builds every payload; the reader decodes the parts read element by
// element (the SPAC section and the KWRD string blob), walking a byte slice
// with bounds checking on every access and recording the first failure
// instead of panicking, which is what lets the snapshot reader guarantee
// "corrupt input returns an error" (enforced by FuzzSnapshotDecode).

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

// take returns the next n bytes, or nil after recording a truncation error.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
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

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) f64() float64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s))
}

// count reads a u32 element count and validates it against the bytes
// actually remaining (minSize bytes per element), so corrupt counts are
// rejected before any allocation is sized from them.
func (r *reader) count(minSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*minSize > len(r.b)-r.off {
		r.fail("element count %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return n
}

func (r *reader) str() string {
	n := r.count(1)
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
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
