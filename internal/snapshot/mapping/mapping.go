// Package mapping is the residency seam under zero-copy snapshot loading:
// it hands the snapshot decoder one contiguous, 8-byte-aligned []byte window
// over a snapshot's contents and owns that window's lifetime. On linux the
// window is a read-only, MAP_SHARED mmap of the file, so every byte stays in
// the kernel page cache — loading touches only the pages the engine actually
// reads, and co-resident daemons serving the same bake share the physical
// memory. Elsewhere (or when mmap fails) the window is a plain heap read of
// the file, behaviorally identical but private; the snapshot reader loads
// such a window untrusted, with every check it can run.
//
// Lifetime rules (see DESIGN.md §13): an engine assembled over a mapped
// window aliases it and must keep the Mapping reachable for as long as it
// serves; Close unmaps deterministically and must only be called once no
// engine view can be touched again. The serving registry closes engines —
// and through them their mappings — deterministically on eviction and when
// the last in-flight query drains off a hot-swapped engine; a finalizer
// backstops Close for mappings dropped on the floor anyway, so leaked
// mappings are still reclaimed with their engines.
package mapping

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

// Mapping is one loaded snapshot image: either an mmap'd file or a
// heap-backed copy. The zero value is not useful; use OpenFile or FromBytes.
type Mapping struct {
	mu     sync.Mutex
	b      []byte
	mapped bool         // true: b is an mmap window, Close must munmap
	unmap  func() error // non-nil exactly while mapped and unclosed
}

// Bytes returns the snapshot image. The slice is read-only: writing to a
// mapped window faults (PROT_READ), and heap windows may be shared.
func (m *Mapping) Bytes() []byte { return m.b }

// Mapped reports whether the image is an OS mapping (page-cache-shared)
// rather than a private heap copy.
func (m *Mapping) Mapped() bool { return m.mapped }

// Len returns the image size in bytes.
func (m *Mapping) Len() int64 { return int64(len(m.b)) }

// Close releases the image. Idempotent. After Close no view handed out by
// Bytes may be touched again — for mapped images the memory is gone.
func (m *Mapping) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.unmap == nil {
		m.b = nil
		return nil
	}
	fn := m.unmap
	m.unmap = nil
	m.b = nil
	runtime.SetFinalizer(m, nil)
	return fn()
}

// FromBytes wraps b as a heap-backed mapping, copying it into an 8-byte-
// aligned buffer so flat-section views built over it satisfy the same
// alignment guarantees a real file mapping provides. Tests and in-memory
// loaders use it.
func FromBytes(b []byte) *Mapping {
	// A []uint64 backing store is 8-aligned by construction.
	aligned := make([]uint64, (len(b)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(aligned))), len(aligned)*8)[:len(b)]
	copy(buf, b)
	return &Mapping{b: buf}
}

// OpenFile loads path: mmap where the platform supports it, a heap read
// otherwise (or when the file is empty, which mmap rejects). Mapped images
// carry a finalizer so an image dropped without Close is still unmapped when
// the GC collects it.
func OpenFile(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("mapping: %s is %d bytes, beyond this platform's address space", path, size)
	}
	if size > 0 {
		if b, unmap, err := mmapFile(f, int(size)); err == nil {
			m := &Mapping{b: b, mapped: true, unmap: unmap}
			runtime.SetFinalizer(m, func(m *Mapping) { _ = m.Close() })
			return m, nil
		}
		// mmap failures (exotic filesystems, platform quirks) degrade to the
		// heap read below rather than failing the load.
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromBytes(b), nil
}
