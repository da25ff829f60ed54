package graph

import (
	"math"
	"reflect"
	"testing"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// The snapshot seam round-trips each structure through Export and its
// FromFlat constructor. The helpers below lay a record out as the columnar
// tables the snapshot reader hands FromFlat.

func pathFinderColumns(rec *PathFinderRecord) (states, arcCounts, arcTo []int32, arcW []float64) {
	for _, st := range rec.States {
		states = append(states, int32(st.Door), int32(st.Part))
	}
	for _, a := range rec.Arcs {
		arcTo = append(arcTo, int32(a.To))
		arcW = append(arcW, a.W)
	}
	return states, rec.ArcCounts, arcTo, arcW
}

func pathFinderFromRecord(s *model.Space, rec *PathFinderRecord) (*PathFinder, error) {
	states, arcCounts, arcTo, arcW := pathFinderColumns(rec)
	return PathFinderFromFlat(s, states, arcCounts, arcTo, arcW)
}

func skeletonDoors(rec *SkeletonRecord) []int32 {
	doors := make([]int32, len(rec.Doors))
	for i, d := range rec.Doors {
		doors[i] = int32(d)
	}
	return doors
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
	got, err := pathFinderFromRecord(s, pf.Export())
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
		mutate func(*PathFinderRecord)
	}{
		{"count mismatch", func(r *PathFinderRecord) { r.ArcCounts = r.ArcCounts[:1] }},
		{"missing door", func(r *PathFinderRecord) { r.States[0].Door = 99 }},
		{"missing partition", func(r *PathFinderRecord) { r.States[0].Part = 99 }},
		{"arc overflow", func(r *PathFinderRecord) { r.ArcCounts[0] += 5 }},
		{"negative arc count", func(r *PathFinderRecord) { r.ArcCounts[0] = -1 }},
		{"unclaimed arcs", func(r *PathFinderRecord) { r.ArcCounts[0] -= 1 }},
		{"arc to missing state", func(r *PathFinderRecord) { r.Arcs[0].To = 9999 }},
		{"negative weight", func(r *PathFinderRecord) { r.Arcs[0].W = -1 }},
		{"NaN weight", func(r *PathFinderRecord) { r.Arcs[0].W = math.NaN() }},
		{"infinite weight", func(r *PathFinderRecord) { r.Arcs[0].W = math.Inf(1) }},
	}
	for _, tc := range cases {
		rec := pf.Export()
		tc.mutate(rec)
		if _, err := pathFinderFromRecord(s, rec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	states, counts, to, w := pathFinderColumns(pf.Export())
	if _, err := PathFinderFromFlat(s, states[:len(states)-1], counts, to, w); err == nil {
		t.Error("odd-length state table accepted")
	}
	if _, err := PathFinderFromFlat(s, states, counts, to, w[:len(w)-1]); err == nil {
		t.Error("arc target and weight tables of different lengths accepted")
	}
}

func TestSkeletonRecordRoundTrip(t *testing.T) {
	s, stairDoors := towerSpace(t)
	sk := NewSkeleton(s)
	trustModes(t, func(t *testing.T, trusted bool) {
		rec := sk.Export()
		got, err := SkeletonFromFlat(s, skeletonDoors(rec), rec.Dist, trusted)
		if err != nil {
			t.Fatalf("SkeletonFromFlat: %v", err)
		}
		if d1, d2 := sk.S2S(stairDoors[0], stairDoors[1]), got.S2S(stairDoors[0], stairDoors[1]); d1 != d2 {
			t.Fatalf("S2S differs: %v vs %v", d1, d2)
		}
		a := geom.Pt(5, 5, 0)
		b := geom.Pt(15, 5, 1)
		if d1, d2 := sk.LowerBound(a, b), got.LowerBound(a, b); d1 != d2 {
			t.Fatalf("LowerBound differs: %v vs %v", d1, d2)
		}
		for v := 0; v < s.NumPartitions(); v++ {
			id := model.PartitionID(v)
			if d1, d2 := sk.PartitionBound(a, id, b), got.PartitionBound(a, id, b); d1 != d2 {
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
		mutate    func(*SkeletonRecord)
	}{
		{"size mismatch", false, func(r *SkeletonRecord) { r.Dist = r.Dist[:1] }},
		{"missing door", false, func(r *SkeletonRecord) { r.Doors[0] = 99 }},
		{"negative door", false, func(r *SkeletonRecord) { r.Doors[0] = -1 }},
		{"non-stair door", false, func(r *SkeletonRecord) { r.Doors[0] = 0 }},
		{"duplicate door", false, func(r *SkeletonRecord) { r.Doors[1] = r.Doors[0] }},
		{"negative distance", true, func(r *SkeletonRecord) { r.Dist[1] = -4 }},
		{"NaN distance", true, func(r *SkeletonRecord) { r.Dist[1] = math.NaN() }},
		{"nonzero diagonal", true, func(r *SkeletonRecord) { r.Dist[0] = 3 }},
	}
	trustModes(t, func(t *testing.T, trusted bool) {
		for _, tc := range cases {
			rec := sk.Export()
			tc.mutate(rec)
			_, err := SkeletonFromFlat(s, skeletonDoors(rec), rec.Dist, trusted)
			if accept := trusted && tc.valueOnly; accept != (err == nil) {
				t.Errorf("%s: accepted=%v, want %v (err %v)", tc.name, err == nil, accept, err)
			}
		}
	})
}

func TestMatrixRecordRoundTrip(t *testing.T) {
	s, _ := towerSpace(t)
	pf := NewPathFinder(s)
	m := NewMatrix(pf)
	trustModes(t, func(t *testing.T, trusted bool) {
		rec := m.Export()
		got, err := MatrixFromFlat(pf, int(rec.N), rec.Dist, rec.Prev, trusted)
		if err != nil {
			t.Fatalf("MatrixFromFlat: %v", err)
		}
		if got.Finder() != pf {
			t.Fatal("restored matrix lost its pathfinder")
		}
		n := pf.NumStates()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				d1, d2 := m.Dist(StateID(a), StateID(b)), got.Dist(StateID(a), StateID(b))
				if d1 != d2 && !(math.IsInf(d1, 1) && math.IsInf(d2, 1)) {
					t.Fatalf("Dist(%d,%d) differs: %v vs %v", a, b, d1, d2)
				}
				h1, ok1 := m.Path(StateID(a), StateID(b))
				h2, ok2 := got.Path(StateID(a), StateID(b))
				if ok1 != ok2 || !reflect.DeepEqual(h1, h2) {
					t.Fatalf("Path(%d,%d) differs", a, b)
				}
			}
		}
	})
}

// TestMatrixFromFlatRejectsBadInput: the parent-pointer table is
// range-checked in both modes (path recovery chases it), the distance scan
// runs only untrusted.
func TestMatrixFromFlatRejectsBadInput(t *testing.T) {
	s, _ := towerSpace(t)
	pf := NewPathFinder(s)
	m := NewMatrix(pf)
	cases := []struct {
		name      string
		valueOnly bool
		mutate    func(*MatrixRecord)
	}{
		{"dimension mismatch", false, func(r *MatrixRecord) { r.N-- }},
		{"short dist table", false, func(r *MatrixRecord) { r.Dist = r.Dist[:3] }},
		{"short prev table", false, func(r *MatrixRecord) { r.Prev = r.Prev[:3] }},
		{"prev out of range", false, func(r *MatrixRecord) { r.Prev[0] = 9999 }},
		{"negative prev", false, func(r *MatrixRecord) { r.Prev[0] = -2 }},
		{"negative distance", true, func(r *MatrixRecord) { r.Dist[1] = -1 }},
		{"NaN distance", true, func(r *MatrixRecord) { r.Dist[1] = math.NaN() }},
	}
	trustModes(t, func(t *testing.T, trusted bool) {
		for _, tc := range cases {
			rec := m.Export()
			tc.mutate(rec)
			_, err := MatrixFromFlat(pf, int(rec.N), rec.Dist, rec.Prev, trusted)
			if accept := trusted && tc.valueOnly; accept != (err == nil) {
				t.Errorf("%s: accepted=%v, want %v (err %v)", tc.name, err == nil, accept, err)
			}
		}
	})
}
