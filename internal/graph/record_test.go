package graph

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// The snapshot seam round-trips each structure through Tables and its
// FromFlat constructor. A skeleton's tables are its own, so tests that forge
// input clone them first.

func (t SkeletonTables) clone() SkeletonTables {
	return SkeletonTables{Doors: slices.Clone(t.Doors), Dist: slices.Clone(t.Dist)}
}

// trustModes runs fn under both FromFlat validation modes.
func trustModes(t *testing.T, fn func(t *testing.T, trusted bool)) {
	for _, trusted := range []bool{false, true} {
		name := "untrusted"
		if trusted {
			name = "trusted"
		}
		t.Run(name, func(t *testing.T) { fn(t, trusted) })
	}
}

func TestPathFinderRecordRoundTrip(t *testing.T) {
	s, _ := towerSpace(t)
	pf := NewPathFinder(s)
	got, err := PathFinderFromFlat(s, pf.Tables())
	if err != nil {
		t.Fatalf("PathFinderFromFlat: %v", err)
	}
	if got.NumStates() != pf.NumStates() {
		t.Fatalf("state count: %d vs %d", got.NumStates(), pf.NumStates())
	}
	for i := 0; i < pf.NumStates(); i++ {
		d1, p1 := pf.State(StateID(i))
		d2, p2 := got.State(StateID(i))
		if d1 != d2 || p1 != p2 {
			t.Fatalf("state %d differs: (%d,%d) vs (%d,%d)", i, d1, p1, d2, p2)
		}
	}
	if !reflect.DeepEqual(got.adj, pf.adj) {
		t.Fatal("adjacency lists differ after round trip")
	}
	if !reflect.DeepEqual(got.doorStates, pf.doorStates) {
		t.Fatal("door-state index differs after round trip")
	}
	// Behavioral check: identical shortest distances across floors.
	a := geom.Pt(1, 1, 0)
	b := geom.Pt(15, 5, 1)
	if d1, d2 := pf.PointToPoint(a, b), got.PointToPoint(a, b); d1 != d2 {
		t.Fatalf("PointToPoint differs: %v vs %v", d1, d2)
	}
}

// TestPathFinderFromFlatRejectsBadInput: the arc table is always
// materialized on the heap, so PathFinderFromFlat has no trusted mode and
// rejects bad weights as well as bad structure.
func TestPathFinderFromFlatRejectsBadInput(t *testing.T) {
	s, _ := towerSpace(t)
	pf := NewPathFinder(s)
	cases := []struct {
		name   string
		mutate func(*PathFinderTables)
	}{
		{"count mismatch", func(r *PathFinderTables) { r.ArcCounts = r.ArcCounts[:1] }},
		{"missing door", func(r *PathFinderTables) { r.States[0] = 99 }},
		{"missing partition", func(r *PathFinderTables) { r.States[1] = 99 }},
		{"arc overflow", func(r *PathFinderTables) { r.ArcCounts[0] += 5 }},
		{"negative arc count", func(r *PathFinderTables) { r.ArcCounts[0] = -1 }},
		{"unclaimed arcs", func(r *PathFinderTables) { r.ArcCounts[0] -= 1 }},
		{"arc to missing state", func(r *PathFinderTables) { r.ArcTo[0] = 9999 }},
		{"negative weight", func(r *PathFinderTables) { r.ArcW[0] = -1 }},
		{"NaN weight", func(r *PathFinderTables) { r.ArcW[0] = math.NaN() }},
		{"infinite weight", func(r *PathFinderTables) { r.ArcW[0] = math.Inf(1) }},
		{"odd-length state table", func(r *PathFinderTables) { r.States = r.States[:len(r.States)-1] }},
		{"arc target and weight tables of different lengths", func(r *PathFinderTables) { r.ArcW = r.ArcW[:len(r.ArcW)-1] }},
	}
	for _, tc := range cases {
		tb := pf.Tables()
		tc.mutate(&tb)
		if _, err := PathFinderFromFlat(s, tb); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSkeletonRecordRoundTrip(t *testing.T) {
	s, stairDoors := towerSpace(t)
	sk := NewSkeleton(s)
	trustModes(t, func(t *testing.T, trusted bool) {
		got, err := SkeletonFromFlat(s, sk.Tables(), trusted)
		if err != nil {
			t.Fatalf("SkeletonFromFlat: %v", err)
		}
		if d1, d2 := s2s(sk, stairDoors[0], stairDoors[1]), s2s(got, stairDoors[0], stairDoors[1]); d1 != d2 {
			t.Fatalf("S2S differs: %v vs %v", d1, d2)
		}
		a := geom.Pt(5, 5, 0)
		b := geom.Pt(15, 5, 1)
		if d1, d2 := sk.LowerBound(a, b), got.LowerBound(a, b); d1 != d2 {
			t.Fatalf("LowerBound differs: %v vs %v", d1, d2)
		}
		ha, hb := s.HostPartition(a), s.HostPartition(b)
		for v := 0; v < s.NumPartitions(); v++ {
			id := model.PartitionID(v)
			if d1, d2 := sk.PartitionBound(a, ha, id, b, hb), got.PartitionBound(a, ha, id, b, hb); d1 != d2 {
				t.Fatalf("PartitionBound via %d differs: %v vs %v", v, d1, d2)
			}
		}
	})
}

// TestSkeletonFromFlatRejectsBadInput pins the trusted-validation contract
// (DESIGN.md §13): structural defects are rejected in both modes, value-only
// defects only by the untrusted scan.
func TestSkeletonFromFlatRejectsBadInput(t *testing.T) {
	s, _ := towerSpace(t)
	sk := NewSkeleton(s)
	cases := []struct {
		name      string
		valueOnly bool
		mutate    func(*SkeletonTables)
	}{
		{"size mismatch", false, func(r *SkeletonTables) { r.Dist = r.Dist[:1] }},
		{"missing door", false, func(r *SkeletonTables) { r.Doors[0] = 99 }},
		{"negative door", false, func(r *SkeletonTables) { r.Doors[0] = -1 }},
		{"non-stair door", false, func(r *SkeletonTables) { r.Doors[0] = 0 }},
		{"duplicate door", false, func(r *SkeletonTables) { r.Doors[1] = r.Doors[0] }},
		{"negative distance", true, func(r *SkeletonTables) { r.Dist[1] = -4 }},
		{"NaN distance", true, func(r *SkeletonTables) { r.Dist[1] = math.NaN() }},
		{"nonzero diagonal", true, func(r *SkeletonTables) { r.Dist[0] = 3 }},
	}
	trustModes(t, func(t *testing.T, trusted bool) {
		for _, tc := range cases {
			tb := sk.Tables().clone()
			tc.mutate(&tb)
			_, err := SkeletonFromFlat(s, tb, trusted)
			if accept := trusted && tc.valueOnly; accept != (err == nil) {
				t.Errorf("%s: accepted=%v, want %v (err %v)", tc.name, err == nil, accept, err)
			}
		}
	})
}

// reindexSkeleton re-lays skeleton tables over the old door indices in
// sel, carrying each door's δs2s row and column along: the result is
// internally consistent, so only the enumeration check can reject it.
func reindexSkeleton(rec SkeletonTables, sel []int) SkeletonTables {
	n := len(rec.Doors)
	out := SkeletonTables{Dist: make([]float64, len(sel)*len(sel))}
	for i, oi := range sel {
		out.Doors = append(out.Doors, rec.Doors[oi])
		for j, oj := range sel {
			v := rec.Dist[oi*n+oj]
			if i == j {
				v = 0
			}
			out.Dist[i*len(sel)+j] = v
		}
	}
	return out
}

// TestSkeletonFromFlatRequiresEnumeration: a restored skeleton must list
// exactly the space's floor-major staircase doors. A list that drops a
// door, adds one, or swaps two (each with a consistent δs2s table) is
// rejected in both trust modes: LowerBound reads each floor's doors as one
// index range, and a missing door's bound would read another door's row.
func TestSkeletonFromFlatRequiresEnumeration(t *testing.T) {
	s := wideStairSpace(t, 3) // doors 0–2 on floor 0, 3–5 on floor 1
	sk := NewSkeleton(s)
	cases := []struct {
		name string
		sel  []int
	}{
		{"dropped door", []int{0, 1, 2, 3, 5}},
		{"extra door", []int{0, 1, 2, 3, 4, 5, 5}},
		{"swapped pair", []int{3, 1, 2, 0, 4, 5}},
		{"swapped on one floor", []int{1, 0, 2, 3, 4, 5}},
	}
	trustModes(t, func(t *testing.T, trusted bool) {
		if _, err := SkeletonFromFlat(s, reindexSkeleton(sk.Tables(), []int{0, 1, 2, 3, 4, 5}), trusted); err != nil {
			t.Fatalf("identity re-layout rejected: %v", err)
		}
		for _, tc := range cases {
			if _, err := SkeletonFromFlat(s, reindexSkeleton(sk.Tables(), tc.sel), trusted); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		}
	})
}

// TestPathFinderFromFlatRejectsStateOrder: the kernel breaks distance ties
// on state ID, which is its (door, partition) order only when states are
// numbered in that order, so a state table out of order or with a repeated
// state is rejected even when every index in it is valid.
func TestPathFinderFromFlatRejectsStateOrder(t *testing.T) {
	s, _ := towerSpace(t)
	pf := NewPathFinder(s)
	cases := []struct {
		name   string
		mutate func(*PathFinderTables)
	}{
		{"states swapped", func(r *PathFinderTables) { swapStates(r.States, 0, 1) }},
		{"doors out of order", func(r *PathFinderTables) { swapStates(r.States, 0, 2) }},
		{"state repeated", func(r *PathFinderTables) { copy(r.States[2:4], r.States[0:2]) }},
	}
	for _, tc := range cases {
		tb := pf.Tables()
		tc.mutate(&tb)
		if _, err := PathFinderFromFlat(s, tb); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// swapStates swaps states i and j of an interleaved (door, partition)
// state table.
func swapStates(states []int32, i, j int) {
	states[2*i], states[2*j] = states[2*j], states[2*i]
	states[2*i+1], states[2*j+1] = states[2*j+1], states[2*i+1]
}
