package model

import (
	"math"
	"reflect"
	"testing"

	"ikrq/internal/geom"
)

// recordSpace builds a two-floor space exercising every feature the record
// must carry: kinds, directional doors, stairways, a lift, and an
// explicitly marked stair door without a stairway.
func recordSpace(t *testing.T) *Space {
	t.Helper()
	b := NewBuilder()
	var stairDoors, liftDoors []DoorID
	for f := 0; f < 2; f++ {
		hall := b.AddPartition("hall", KindHallway, geom.R(0, 0, 30, 10, f))
		shop := b.AddPartition("shop", KindRoom, geom.R(0, 10, 10, 20, f))
		stair := b.AddPartition("stair", KindStaircase, geom.R(30, 0, 35, 5, f))
		lift := b.AddPartition("lift", KindElevator, geom.R(30, 5, 35, 10, f))
		b.AddDoor(geom.Pt(5, 10, f), hall, shop)
		// One-way door out of the shop (exit only).
		b.AddDirectionalDoor(geom.Pt(9, 10, f), []PartitionID{hall}, []PartitionID{shop, hall})
		stairDoors = append(stairDoors, b.AddDoor(geom.Pt(30, 2.5, f), hall, stair))
		liftDoors = append(liftDoors, b.AddDoor(geom.Pt(30, 7.5, f), hall, lift))
	}
	b.AddStairway(stairDoors[0], stairDoors[1], 20)
	b.AddLift(liftDoors[0], liftDoors[1], 35)
	b.MarkStairDoor(0) // stair flag with no stairway attached
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

func TestSpaceRecordRoundTrip(t *testing.T) {
	s := recordSpace(t)
	rec := s.Export()
	got, err := SpaceFromRecord(rec)
	if err != nil {
		t.Fatalf("SpaceFromRecord: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("restored space fails validation: %v", err)
	}
	if got.NumPartitions() != s.NumPartitions() || got.NumDoors() != s.NumDoors() ||
		got.Floors() != s.Floors() {
		t.Fatalf("shape mismatch: got %d/%d/%d want %d/%d/%d",
			got.NumPartitions(), got.NumDoors(), got.Floors(),
			s.NumPartitions(), s.NumDoors(), s.Floors())
	}
	for i := 0; i < s.NumPartitions(); i++ {
		a, b := s.Partition(PartitionID(i)), got.Partition(PartitionID(i))
		if a.Name != b.Name || a.Kind != b.Kind || a.Bounds != b.Bounds {
			t.Fatalf("partition %d differs: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.EnterDoors(), b.EnterDoors()) ||
			!reflect.DeepEqual(a.LeaveDoors(), b.LeaveDoors()) {
			t.Fatalf("partition %d P2D mappings differ", i)
		}
	}
	for i := 0; i < s.NumDoors(); i++ {
		a, b := s.Door(DoorID(i)), got.Door(DoorID(i))
		if a.Pos != b.Pos || a.Stair != b.Stair {
			t.Fatalf("door %d differs: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Enterable(), b.Enterable()) ||
			!reflect.DeepEqual(a.Leaveable(), b.Leaveable()) {
			t.Fatalf("door %d D2P mappings differ", i)
		}
		// Derived self-loop distances must be recomputed identically.
		for _, v := range a.Enterable() {
			da, db := s.SelfLoopDist(DoorID(i), v), got.SelfLoopDist(DoorID(i), v)
			if da != db && !(math.IsInf(da, 1) && math.IsInf(db, 1)) {
				t.Fatalf("self-loop δd2d(%d,%d) via %d: %v vs %v", i, i, v, da, db)
			}
		}
	}
	if !reflect.DeepEqual(s.Stairways(), got.Stairways()) {
		t.Fatalf("stairways differ: %v vs %v", s.Stairways(), got.Stairways())
	}
	for f := 0; f < s.Floors(); f++ {
		if !reflect.DeepEqual(s.StairDoorsOnFloor(f), got.StairDoorsOnFloor(f)) {
			t.Fatalf("stair doors on floor %d differ", f)
		}
	}
	for i := 0; i < s.NumDoors(); i++ {
		if !reflect.DeepEqual(s.StairwaysFrom(DoorID(i)), got.StairwaysFrom(DoorID(i))) {
			t.Fatalf("stairways from door %d differ", i)
		}
	}
}

func TestSpaceRecordSharesNoMemory(t *testing.T) {
	s := recordSpace(t)
	rec := s.Export()
	rec.Partitions[0].Name = "mutated"
	rec.Doors[0].Enterable[0] = 99
	if s.Partition(0).Name == "mutated" || s.Door(0).Enterable()[0] == 99 {
		t.Fatal("Export shares memory with the space")
	}
}

func TestSpaceFromRecordRejectsBadInput(t *testing.T) {
	if _, err := SpaceFromRecord(nil); err == nil {
		t.Fatal("nil record accepted")
	}
	s := recordSpace(t)
	bad := s.Export()
	bad.Stairways[0].To = 999
	if _, err := SpaceFromRecord(bad); err == nil {
		t.Fatal("stairway to missing door accepted")
	}
	bad = s.Export()
	bad.Doors[0].Enterable = []PartitionID{42}
	if _, err := SpaceFromRecord(bad); err == nil {
		t.Fatal("door referencing missing partition accepted")
	}
}

// TestSpaceFromRecordDerivedRejectsBadOffsets: the derived CSRs may come
// straight from an unchecksummed mmap, so an interior offset past its table
// must be an error, even when a later row would expose the decrease — the
// restore slices each window as it goes.
func TestSpaceFromRecordDerivedRejectsBadOffsets(t *testing.T) {
	s := recordSpace(t)
	if _, err := SpaceFromRecordDerived(s.Export(), s.ExportDerived()); err != nil {
		t.Fatalf("SpaceFromRecordDerived on a clean export: %v", err)
	}
	cases := []struct {
		name   string
		offs   func(*DerivedRecord) []int32
		tables func(*DerivedRecord) int
	}{
		{"enter", func(d *DerivedRecord) []int32 { return d.EnterOff }, func(d *DerivedRecord) int { return len(d.EnterDoors) }},
		{"leave", func(d *DerivedRecord) []int32 { return d.LeaveOff }, func(d *DerivedRecord) int { return len(d.LeaveDoors) }},
		{"door enter", func(d *DerivedRecord) []int32 { return d.DoorEnterOff }, func(d *DerivedRecord) int { return len(d.DoorEnterParts) }},
		{"door leave", func(d *DerivedRecord) []int32 { return d.DoorLeaveOff }, func(d *DerivedRecord) int { return len(d.DoorLeaveParts) }},
		{"self-loop", func(d *DerivedRecord) []int32 { return d.SelfLoopOff }, func(d *DerivedRecord) int { return len(d.SelfLoopPart) }},
	}
	for _, tc := range cases {
		der := s.ExportDerived()
		tc.offs(der)[1] = int32(tc.tables(der) + 1000)
		if _, err := SpaceFromRecordDerived(s.Export(), der); err == nil {
			t.Errorf("%s: interior offset past the table accepted", tc.name)
		}
	}
}
