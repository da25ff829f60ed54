// Package snapshot defines the versioned binary container that persists an
// IKRQ engine's immutable index layer — the indoor space, the keyword
// index, the state-graph pathfinder, the skeleton lower-bound closure and
// (optionally) the KoE* distance backend, the hierarchical oracle — so an
// engine can be built once, baked to a file, and assembled on the next
// start without recomputation.
//
// There is one layout, the flat container (see flat.go and DESIGN.md §6,
// §13): a section directory up front and 8-byte-aligned little-endian
// payloads that a loader can serve as views over an mmap'd file. The
// SPAC, SPCD, KWRD, PATH and SKEL sections are written on every bake; ORCL
// is present exactly when the engine had built its KoE* backend at save
// time. Version history:
//
//	v1, v2: a sequential section stream. No longer read: both fail with
//	    ErrVersion, and the file must be re-baked with this build.
//	v3: the flat layout, with a section for the dense all-pairs KoE*
//	    matrix that carried a parent table, declared via min-reader 3. No
//	    longer read (ErrVersion, re-bake).
//	v4: the dense matrix section held distances only, declared via
//	    min-reader 4. No longer read (ErrVersion, re-bake): a v4 bake may
//	    carry the matrix section.
//	v5: no dense matrix section; the oracle is the one KoE* backend.
//	    Still declared via min-reader 4, since a v4 reader reads a v5
//	    stream correctly. A future version whose streams remain readable
//	    by this build keeps min-reader ≤ 5, under which unknown sections
//	    are skipped instead of rejected.
//
// Decoding is otherwise strict: bad magic, an unreadable version, an
// unknown tag, a checksum mismatch, truncation, or any malformed payload
// yields an error — never a panic — and the per-layer FromFlat
// constructors revalidate every ID before an engine is assembled.
package snapshot

import (
	"errors"

	"ikrq/internal/model"
)

// Magic identifies an IKRQ snapshot stream.
const Magic = "IKRQSNAP"

// Version is the current container format version. This build writes
// Version and reads every version from MinDecodable up; newer streams are
// readable exactly when they declare a min-reader version this build
// satisfies (migration notes live in DESIGN.md §6).
const Version uint16 = 5

// MinDecodable is the oldest stream version this build still reads.
const MinDecodable uint16 = 5

// Section tags.
const (
	tagSpace      = "SPAC"
	tagDerived    = "SPCD" // derived space structures (see flat.go)
	tagKeywords   = "KWRD"
	tagPathFinder = "PATH"
	tagSkeleton   = "SKEL"
	tagOracle     = "ORCL"
)

// Decoding errors. All decoder failures wrap one of these, so callers can
// distinguish "not a snapshot" from "snapshot from a newer build" from
// "damaged snapshot".
var (
	// ErrBadMagic means the stream does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic (not an IKRQ snapshot)")
	// ErrVersion means the snapshot was written by a format version this
	// build does not read (an older sequential one or a newer one); re-bake
	// it with this build.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum means a section's payload does not match its CRC.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrCorrupt covers every other malformation: truncation, unknown or
	// duplicate sections, counts or IDs that do not fit the payload.
	ErrCorrupt = errors.New("snapshot: corrupt")
)

// --- space section ---

func encodeSpace(rec *model.SpaceRecord) []byte {
	var w writer
	w.u32(uint32(len(rec.Partitions)))
	for i := range rec.Partitions {
		p := &rec.Partitions[i]
		w.str(p.Name)
		w.u8(uint8(p.Kind))
		w.f64(p.Bounds.MinX)
		w.f64(p.Bounds.MinY)
		w.f64(p.Bounds.MaxX)
		w.f64(p.Bounds.MaxY)
		w.i32(int32(p.Bounds.Floor))
	}
	w.u32(uint32(len(rec.Doors)))
	for i := range rec.Doors {
		d := &rec.Doors[i]
		w.f64(d.Pos.X)
		w.f64(d.Pos.Y)
		w.i32(int32(d.Pos.Floor))
		if d.Stair {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u32(uint32(len(d.Enterable)))
		for _, v := range d.Enterable {
			w.i32(int32(v))
		}
		w.u32(uint32(len(d.Leaveable)))
		for _, v := range d.Leaveable {
			w.i32(int32(v))
		}
	}
	w.u32(uint32(len(rec.Stairways)))
	for _, sw := range rec.Stairways {
		w.i32(int32(sw.From))
		w.i32(int32(sw.To))
		w.f64(sw.Length)
		if sw.Lift {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
	return w.buf
}

// decodeSpace decodes the SPAC section. In lite mode it leaves the
// per-door enterable/leaveable lists nil: the trusted loader adopts those
// from the SPCD CSRs instead, sparing one heap slice pair per door.
func decodeSpace(r *reader, lite bool) *model.SpaceRecord {
	rec := &model.SpaceRecord{}
	// Minimum encoded sizes: a partition is name-len(4) + kind(1) +
	// bounds(32) + floor(4) = 41 bytes, a door pos(20) + stair(1) + two
	// empty ID lists(8) = 29, so hostile counts cannot size allocations
	// beyond what the payload could actually hold.
	np := r.count32(41)
	rec.Partitions = make([]model.PartitionRecord, 0, np)
	for i := 0; i < np && r.err == nil; i++ {
		var p model.PartitionRecord
		p.Name = r.str()
		p.Kind = model.PartitionKind(r.u8())
		p.Bounds.MinX = r.f64()
		p.Bounds.MinY = r.f64()
		p.Bounds.MaxX = r.f64()
		p.Bounds.MaxY = r.f64()
		p.Bounds.Floor = int(r.i32())
		rec.Partitions = append(rec.Partitions, p)
	}
	nd := r.count32(29)
	rec.Doors = make([]model.DoorRecord, 0, nd)
	for i := 0; i < nd && r.err == nil; i++ {
		var d model.DoorRecord
		d.Pos.X = r.f64()
		d.Pos.Y = r.f64()
		d.Pos.Floor = int(r.i32())
		d.Stair = r.u8() != 0
		ne := r.count32(4)
		if lite {
			r.take(4 * ne)
		} else {
			for j := 0; j < ne && r.err == nil; j++ {
				d.Enterable = append(d.Enterable, model.PartitionID(r.i32()))
			}
		}
		nl := r.count32(4)
		if lite {
			r.take(4 * nl)
		} else {
			for j := 0; j < nl && r.err == nil; j++ {
				d.Leaveable = append(d.Leaveable, model.PartitionID(r.i32()))
			}
		}
		rec.Doors = append(rec.Doors, d)
	}
	ns := r.count32(17)
	for i := 0; i < ns && r.err == nil; i++ {
		var sw model.Stairway
		sw.From = model.DoorID(r.i32())
		sw.To = model.DoorID(r.i32())
		sw.Length = r.f64()
		sw.Lift = r.u8() != 0
		rec.Stairways = append(rec.Stairways, sw)
	}
	return rec
}
