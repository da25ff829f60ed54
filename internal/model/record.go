package model

import (
	"fmt"

	"ikrq/internal/geom"
)

// SpaceRecord is the flat, serializable form of a Space: exactly the input
// the Builder consumes, with IDs implied by position. It is the model
// layer's half of the snapshot seam (see internal/snapshot): Export turns a
// built Space into a record, SpaceFromRecord replays the record through the
// Builder and revalidates, so a restored Space is indistinguishable from
// the original — same dense IDs, same sorted mappings, same derived
// structures.
type SpaceRecord struct {
	Partitions []PartitionRecord
	Doors      []DoorRecord
	Stairways  []Stairway
}

// PartitionRecord is the buildable description of one partition. Its
// position in SpaceRecord.Partitions is its PartitionID.
type PartitionRecord struct {
	Name   string
	Kind   PartitionKind
	Bounds geom.Rect
}

// DoorRecord is the buildable description of one door. Its position in
// SpaceRecord.Doors is its DoorID.
type DoorRecord struct {
	Pos       geom.Point
	Enterable []PartitionID // D2P⊢(d)
	Leaveable []PartitionID // D2P⊣(d)
	Stair     bool
}

// Export captures the space as a record. The record shares no memory with
// the space and can outlive it.
func (s *Space) Export() *SpaceRecord {
	rec := &SpaceRecord{
		Partitions: make([]PartitionRecord, len(s.partitions)),
		Doors:      make([]DoorRecord, len(s.doors)),
		Stairways:  append([]Stairway(nil), s.stairways...),
	}
	for i := range s.partitions {
		p := &s.partitions[i]
		rec.Partitions[i] = PartitionRecord{Name: p.Name, Kind: p.Kind, Bounds: p.Bounds}
	}
	for i := range s.doors {
		d := &s.doors[i]
		rec.Doors[i] = DoorRecord{
			Pos:       d.Pos,
			Enterable: append([]PartitionID(nil), d.enterable...),
			Leaveable: append([]PartitionID(nil), d.leaveable...),
			Stair:     d.Stair,
		}
	}
	return rec
}

// WithoutDoors returns a copy of the record with the given doors removed:
// the door entries are dropped, remaining doors are renumbered densely, and
// stairways anchored at a removed door disappear with it. The second result
// maps every original DoorID to its ID in the filtered record, with NoDoor
// for removed doors — monotone, so door-ID order comparisons are preserved.
//
// This is the "rebuild the venue without those doors" path that a
// Conditions overlay exists to avoid: the closure-oracle tests and the
// overlay-vs-rebuild benchmark build an engine from the filtered record and
// check that overlay search on the original engine answers identically.
// Whether the filtered space is still buildable (every partition keeps an
// enter and a leave door) is decided by Build via SpaceFromRecord.
func (rec *SpaceRecord) WithoutDoors(closed []DoorID) (*SpaceRecord, []DoorID) {
	drop := make(map[DoorID]struct{}, len(closed))
	for _, d := range closed {
		drop[d] = struct{}{}
	}
	remap := make([]DoorID, len(rec.Doors))
	out := &SpaceRecord{Partitions: append([]PartitionRecord(nil), rec.Partitions...)}
	for i := range rec.Doors {
		if _, gone := drop[DoorID(i)]; gone {
			remap[i] = NoDoor
			continue
		}
		remap[i] = DoorID(len(out.Doors))
		d := rec.Doors[i]
		out.Doors = append(out.Doors, DoorRecord{
			Pos:       d.Pos,
			Enterable: append([]PartitionID(nil), d.Enterable...),
			Leaveable: append([]PartitionID(nil), d.Leaveable...),
			Stair:     d.Stair,
		})
	}
	for _, sw := range rec.Stairways {
		if int(sw.From) < 0 || int(sw.From) >= len(remap) ||
			int(sw.To) < 0 || int(sw.To) >= len(remap) {
			continue // dangling reference; SpaceFromRecord would reject it anyway
		}
		from, to := remap[sw.From], remap[sw.To]
		if from == NoDoor || to == NoDoor {
			continue
		}
		out.Stairways = append(out.Stairways, Stairway{From: from, To: to, Length: sw.Length, Lift: sw.Lift})
	}
	return out, remap
}

// DerivedRecord carries the structures Build derives from a SpaceRecord —
// the P2D door lists as CSR tables and the self-loop distance table — so a
// trusted restore (SpaceFromRecordDerived) can adopt them directly instead
// of replaying the builder. The geometry-heavy self-loop computation is the
// single largest cost of a snapshot cold start, and it is pure function of
// the record, so baking its result once is free determinism.
//
// All slices may alias read-only storage (an mmap'd snapshot); neither the
// record nor a Space restored from it ever writes through them.
type DerivedRecord struct {
	// EnterOff/LeaveOff are CSR offsets of length NumPartitions+1;
	// EnterDoors[EnterOff[v]:EnterOff[v+1]] is P2D⊢(v), ascending.
	EnterOff   []int32
	LeaveOff   []int32
	EnterDoors []DoorID
	LeaveDoors []DoorID

	// DoorEnterOff/DoorLeaveOff are CSRs of length NumDoors+1 over the
	// D2P⊢/D2P⊣ partition lists, mirroring the per-door Enterable/Leaveable
	// slices of the SpaceRecord (every door–partition pair appears exactly
	// once on each side, so len(DoorEnterParts) == len(EnterDoors)). A
	// restore that has these can skip materializing the record's per-door
	// lists altogether.
	DoorEnterOff   []int32
	DoorLeaveOff   []int32
	DoorEnterParts []PartitionID
	DoorLeaveParts []PartitionID

	// SelfLoopOff is a CSR of length NumDoors+1 over SelfLoopPart (ascending
	// partition IDs per window) and SelfLoopDist, mirroring Space's internal
	// self-loop table: δd2d(d,d) per partition enter-and-leaveable via d.
	SelfLoopOff  []int32
	SelfLoopPart []PartitionID
	SelfLoopDist []float64
}

// ExportDerived captures the derived structures of a built space. Paired
// with Export, it is everything SpaceFromRecordDerived needs.
func (s *Space) ExportDerived() *DerivedRecord {
	der := &DerivedRecord{
		EnterOff:     make([]int32, len(s.partitions)+1),
		LeaveOff:     make([]int32, len(s.partitions)+1),
		DoorEnterOff: make([]int32, len(s.doors)+1),
		DoorLeaveOff: make([]int32, len(s.doors)+1),
		SelfLoopOff:  append([]int32(nil), s.selfLoopOff...),
		SelfLoopPart: append([]PartitionID(nil), s.selfLoopPart...),
		SelfLoopDist: append([]float64(nil), s.selfLoopDist...),
	}
	for i := range s.partitions {
		p := &s.partitions[i]
		der.EnterOff[i] = int32(len(der.EnterDoors))
		der.LeaveOff[i] = int32(len(der.LeaveDoors))
		der.EnterDoors = append(der.EnterDoors, p.enterDoors...)
		der.LeaveDoors = append(der.LeaveDoors, p.leaveDoors...)
	}
	der.EnterOff[len(s.partitions)] = int32(len(der.EnterDoors))
	der.LeaveOff[len(s.partitions)] = int32(len(der.LeaveDoors))
	for i := range s.doors {
		d := &s.doors[i]
		der.DoorEnterOff[i] = int32(len(der.DoorEnterParts))
		der.DoorLeaveOff[i] = int32(len(der.DoorLeaveParts))
		der.DoorEnterParts = append(der.DoorEnterParts, d.enterable...)
		der.DoorLeaveParts = append(der.DoorLeaveParts, d.leaveable...)
	}
	der.DoorEnterOff[len(s.doors)] = int32(len(der.DoorEnterParts))
	der.DoorLeaveOff[len(s.doors)] = int32(len(der.DoorLeaveParts))
	return der
}

// SpaceFromRecordDerived rebuilds a Space from a record plus its exported
// derived structures, skipping the builder replay: the P2D and D2P windows
// and the self-loop table are adopted as-is (they may alias an mmap'd
// snapshot), not recomputed. The record's own per-door Enterable/Leaveable
// slices are ignored — the derived D2P CSRs carry the same pairs — so a
// caller may leave them nil and skip materializing them. Every structural
// invariant the rest of the model relies on is still checked — reference
// ranges, CSR monotonicity, sortedness, non-empty door lists, stairway
// adjacency — but the float contents of the self-loop table are trusted,
// exactly like the flat distance tables on the trusted snapshot load
// (DESIGN.md §13). Untrusted snapshot loads rebuild through SpaceFromRecord
// instead, so any divergence between the two is caught by the snapshot
// package's trust-mode equivalence suite.
func SpaceFromRecordDerived(rec *SpaceRecord, der *DerivedRecord) (*Space, error) {
	if rec == nil || der == nil {
		return nil, fmt.Errorf("model: nil space or derived record")
	}
	nP, nD := len(rec.Partitions), len(rec.Doors)
	if nP == 0 {
		return nil, fmt.Errorf("model: space has no partitions")
	}
	if nD == 0 {
		return nil, fmt.Errorf("model: space has no doors")
	}
	if len(der.EnterOff) != nP+1 || len(der.LeaveOff) != nP+1 ||
		len(der.DoorEnterOff) != nD+1 || len(der.DoorLeaveOff) != nD+1 ||
		len(der.SelfLoopOff) != nD+1 || len(der.SelfLoopPart) != len(der.SelfLoopDist) ||
		der.EnterOff[0] != 0 || int(der.EnterOff[nP]) != len(der.EnterDoors) ||
		der.LeaveOff[0] != 0 || int(der.LeaveOff[nP]) != len(der.LeaveDoors) ||
		der.DoorEnterOff[0] != 0 || int(der.DoorEnterOff[nD]) != len(der.DoorEnterParts) ||
		der.DoorLeaveOff[0] != 0 || int(der.DoorLeaveOff[nD]) != len(der.DoorLeaveParts) ||
		len(der.DoorEnterParts) != len(der.EnterDoors) ||
		len(der.DoorLeaveParts) != len(der.LeaveDoors) ||
		der.SelfLoopOff[0] != 0 || int(der.SelfLoopOff[nD]) != len(der.SelfLoopPart) {
		return nil, fmt.Errorf("model: derived record shape does not match the space record")
	}

	s := &Space{
		partitions: make([]Partition, nP),
		doors:      make([]Door, nD),
		stairways:  append([]Stairway(nil), rec.Stairways...),
	}
	maxFloor := 0
	for i := range rec.Partitions {
		pr := &rec.Partitions[i]
		p := &s.partitions[i]
		p.ID, p.Name, p.Kind, p.Bounds = PartitionID(i), pr.Name, pr.Kind, pr.Bounds
		if f := p.Floor(); f > maxFloor {
			maxFloor = f
		}
		// Each window is sliced before later rows are checked, so its end is
		// bounded here rather than by the final offset.
		elo, ehi := der.EnterOff[i], der.EnterOff[i+1]
		llo, lhi := der.LeaveOff[i], der.LeaveOff[i+1]
		if ehi < elo || lhi < llo || int(ehi) > len(der.EnterDoors) || int(lhi) > len(der.LeaveDoors) {
			return nil, fmt.Errorf("model: partition %d has decreasing or out-of-range derived door offsets", i)
		}
		if ehi == elo {
			return nil, fmt.Errorf("model: partition %d (%s) has no enter door", i, pr.Name)
		}
		if lhi == llo {
			return nil, fmt.Errorf("model: partition %d (%s) has no leave door", i, pr.Name)
		}
		p.enterDoors = der.EnterDoors[elo:ehi:ehi]
		p.leaveDoors = der.LeaveDoors[llo:lhi:lhi]
		if err := checkDoorWindow(p.enterDoors, nD, i); err != nil {
			return nil, err
		}
		if err := checkDoorWindow(p.leaveDoors, nD, i); err != nil {
			return nil, err
		}
	}
	for i := range rec.Doors {
		dr := &rec.Doors[i]
		d := &s.doors[i]
		d.ID, d.Pos, d.Stair = DoorID(i), dr.Pos, dr.Stair
		elo, ehi := der.DoorEnterOff[i], der.DoorEnterOff[i+1]
		llo, lhi := der.DoorLeaveOff[i], der.DoorLeaveOff[i+1]
		if ehi < elo || lhi < llo || int(ehi) > len(der.DoorEnterParts) || int(lhi) > len(der.DoorLeaveParts) {
			return nil, fmt.Errorf("model: door %d has decreasing or out-of-range derived partition offsets", i)
		}
		d.enterable = der.DoorEnterParts[elo:ehi:ehi]
		d.leaveable = der.DoorLeaveParts[llo:lhi:lhi]
		if f := d.Floor(); f > maxFloor {
			maxFloor = f
		}
		if len(d.enterable) == 0 && len(d.leaveable) == 0 {
			return nil, fmt.Errorf("model: door %d connects nothing", d.ID)
		}
		if err := checkPartitionRefs(d.enterable, nP, i); err != nil {
			return nil, err
		}
		if err := checkPartitionRefs(d.leaveable, nP, i); err != nil {
			return nil, err
		}
		lo, hi := der.SelfLoopOff[i], der.SelfLoopOff[i+1]
		if hi < lo || int(hi) > len(der.SelfLoopPart) {
			return nil, fmt.Errorf("model: door %d has malformed self-loop offsets", i)
		}
		prev := PartitionID(-1)
		for _, v := range der.SelfLoopPart[lo:hi] {
			if int(v) < 0 || int(v) >= nP || v < prev {
				return nil, fmt.Errorf("model: door %d has out-of-range or unsorted self-loop partition %d", i, v)
			}
			prev = v
		}
	}
	s.floors = maxFloor + 1
	s.selfLoopOff = der.SelfLoopOff
	s.selfLoopPart = der.SelfLoopPart
	s.selfLoopDist = der.SelfLoopDist

	for _, sw := range s.stairways {
		if int(sw.From) < 0 || int(sw.From) >= nD || int(sw.To) < 0 || int(sw.To) >= nD {
			return nil, fmt.Errorf("model: stairway references missing door")
		}
		df := s.doors[sw.From].Floor()
		dt := s.doors[sw.To].Floor()
		if gap := abs(df - dt); gap == 0 || (gap != 1 && !sw.Lift) {
			return nil, fmt.Errorf("model: stairway %d->%d connects floors %d and %d (only lifts may skip floors)",
				sw.From, sw.To, df, dt)
		}
		if sw.Length <= 0 {
			return nil, fmt.Errorf("model: stairway %d->%d has non-positive length", sw.From, sw.To)
		}
		s.doors[sw.From].Stair = true
		s.doors[sw.To].Stair = true
	}
	s.indexStairDoors()
	s.indexStairways()
	return s, nil
}

// checkDoorWindow verifies one P2D window: door IDs in range and ascending
// (the builder emits them sorted; search code binary-searches nothing here
// but CommonPartition and the D2D accessors rely on determinism).
func checkDoorWindow(ds []DoorID, nDoors, part int) error {
	prev := DoorID(-1)
	for _, d := range ds {
		if int(d) < 0 || int(d) >= nDoors || d < prev {
			return fmt.Errorf("model: partition %d has out-of-range or unsorted door %d", part, d)
		}
		prev = d
	}
	return nil
}

// checkPartitionRefs verifies one D2P list: partition IDs in range and
// ascending, the order AddDirectionalDoor establishes.
func checkPartitionRefs(ps []PartitionID, nParts, door int) error {
	prev := PartitionID(-1)
	for _, v := range ps {
		if int(v) < 0 || int(v) >= nParts || v < prev {
			return fmt.Errorf("model: door %d references out-of-range or unsorted partition %d", door, v)
		}
		prev = v
	}
	return nil
}

// SpaceFromRecord rebuilds a Space from a record by replaying it through
// the Builder, which re-runs the full topology validation and recomputes
// the (cheap) derived structures — self-loop distances and stair-door
// indexes. IDs are positional, so a round-tripped space preserves every
// PartitionID and DoorID.
func SpaceFromRecord(rec *SpaceRecord) (*Space, error) {
	if rec == nil {
		return nil, fmt.Errorf("model: nil space record")
	}
	b := NewBuilder()
	b.Grow(len(rec.Partitions), len(rec.Doors))
	for i := range rec.Partitions {
		p := &rec.Partitions[i]
		b.AddPartition(p.Name, p.Kind, p.Bounds)
	}
	for i := range rec.Doors {
		d := &rec.Doors[i]
		b.AddDirectionalDoor(d.Pos, d.Enterable, d.Leaveable)
	}
	for _, sw := range rec.Stairways {
		if int(sw.From) < 0 || int(sw.From) >= len(rec.Doors) ||
			int(sw.To) < 0 || int(sw.To) >= len(rec.Doors) {
			return nil, fmt.Errorf("model: stairway %d->%d references missing door", sw.From, sw.To)
		}
		if sw.Lift {
			b.AddLift(sw.From, sw.To, sw.Length)
		} else {
			b.AddStairway(sw.From, sw.To, sw.Length)
		}
	}
	// Stair flags beyond the ones stairways imply (explicitly marked doors).
	for i := range rec.Doors {
		if rec.Doors[i].Stair {
			b.MarkStairDoor(DoorID(i))
		}
	}
	return b.Build()
}
