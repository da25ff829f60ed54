package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// randomMall builds a deterministic pseudo-random multi-floor venue: a strip
// of hallway cells per floor, shops hanging off random cells, and one or two
// stairway columns threading the floors. It exercises the oracle's hub
// machinery (multiple hubs per floor, uneven shop placement) while staying
// small enough for exhaustive Dijkstra ground truth.
func randomMall(t *testing.T, seed int64) *model.Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := model.NewBuilder()
	floors := 2 + rng.Intn(3)
	cols := 3 + rng.Intn(3)
	twoStairs := rng.Intn(2) == 0
	var leftStairs, rightStairs []model.DoorID
	for f := 0; f < floors; f++ {
		halls := make([]model.PartitionID, cols)
		for c := 0; c < cols; c++ {
			x0 := float64(c * 10)
			halls[c] = b.AddPartition(fmt.Sprintf("h%d_%d", f, c), model.KindHallway,
				geom.R(x0, 0, x0+10, 10, f))
			if c > 0 {
				b.AddDoor(geom.Pt(x0, 1+8*rng.Float64(), f), halls[c-1], halls[c])
			}
		}
		for c := 0; c < cols; c++ {
			if rng.Intn(2) == 0 {
				continue
			}
			x0 := float64(c * 10)
			shop := b.AddPartition(fmt.Sprintf("s%d_%d", f, c), model.KindRoom,
				geom.R(x0+1, 10, x0+9, 16, f))
			b.AddDoor(geom.Pt(x0+2+6*rng.Float64(), 10, f), halls[c], shop)
		}
		st := b.AddPartition(fmt.Sprintf("stL%d", f), model.KindStaircase,
			geom.R(-5, 0, 0, 5, f))
		leftStairs = append(leftStairs, b.AddDoor(geom.Pt(0, 2.5, f), st, halls[0]))
		if twoStairs {
			xr := float64(cols * 10)
			str := b.AddPartition(fmt.Sprintf("stR%d", f), model.KindStaircase,
				geom.R(xr, 0, xr+5, 5, f))
			rightStairs = append(rightStairs, b.AddDoor(geom.Pt(xr, 2.5, f), str, halls[cols-1]))
		}
	}
	for f := 0; f+1 < floors; f++ {
		b.AddStairway(leftStairs[f], leftStairs[f+1], 15+10*rng.Float64())
		if twoStairs {
			b.AddStairway(rightStairs[f], rightStairs[f+1], 15+10*rng.Float64())
		}
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build(seed=%d): %v", seed, err)
	}
	return s
}

// sampleCosts returns the overlay variants the admissibility property is
// checked under: bare, a door closure, and a door delay (doors picked
// deterministically from the rng).
func sampleCosts(s *model.Space, rng *rand.Rand) []Costs {
	closed := model.DoorID(rng.Intn(s.NumDoors()))
	delayed := model.DoorID(rng.Intn(s.NumDoors()))
	penalty := 5 + 20*rng.Float64()
	return []Costs{
		{},
		ForbidOnly(func(d model.DoorID) bool { return d == closed }),
		{Delay: func(d model.DoorID) float64 {
			if d == delayed {
				return penalty
			}
			return 0
		}},
	}
}

// TestOracleAdmissibility is the satellite property test: over randomized
// venues, Oracle.Dist never exceeds the true (possibly overlaid) shortest
// distance, and equals the static truth wherever DistExact claims exactness.
// Overlays only grow distances, so one static bound must survive all three.
func TestOracleAdmissibility(t *testing.T) {
	const pairsPerVenue = 400
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := randomMall(t, seed)
			pf := NewPathFinder(s)
			o := NewOracle(pf)
			rng := rand.New(rand.NewSource(seed * 7919))
			overlays := sampleCosts(s, rng)
			ws := NewWorkspace()
			n := pf.NumStates()
			for i := 0; i < pairsPerVenue; i++ {
				a := StateID(rng.Intn(n))
				bs := StateID(rng.Intn(n))
				d, exact := o.DistExact(a, bs)
				pf.dijkstra(ws, []Seed{{State: a}}, Costs{}, nil)
				static := ws.distAt(bs)
				if exact {
					// Cross-floor sums may differ from the tree distance by
					// float association only.
					if math.IsInf(static, 1) != math.IsInf(d, 1) ||
						(!math.IsInf(d, 1) && math.Abs(d-static) > 1e-9*(1+static)) {
						t.Fatalf("pair %v->%v: exact Dist=%v, Dijkstra=%v", a, bs, d, static)
					}
				} else if d > static+1e-9 {
					t.Fatalf("pair %v->%v: bound %v exceeds static truth %v", a, bs, d, static)
				}
				for ci, costs := range overlays[1:] {
					pf.dijkstra(ws, []Seed{{State: a}}, costs, nil)
					overlaid := ws.distAt(bs)
					if d > overlaid+1e-9*(1+d) {
						t.Fatalf("pair %v->%v overlay %d: Dist %v exceeds overlaid truth %v",
							a, bs, ci, d, overlaid)
					}
				}
			}
		})
	}
}

// TestNewOracleParallelDeterministic is the parallel-build gate: the hub
// sweep's output must not depend on worker scheduling.
func TestNewOracleParallelDeterministic(t *testing.T) {
	s := randomMall(t, 3)
	pf := NewPathFinder(s)
	seq := newOracleWorkers(pf, 1)
	for _, workers := range []int{2, 4, 8} {
		par := newOracleWorkers(pf, workers)
		if !reflect.DeepEqual(seq.Export(), par.Export()) {
			t.Fatalf("oracle build with %d workers differs from sequential", workers)
		}
	}
}

// TestMatrixPathEdgeCases (named for the dense matrix it was first written
// against; the static-path code it covers is the oracle's) covers the
// static-path corners of the DistanceSource seam: a degenerate src==dst
// query, an unreachable target (disconnected space fragment), and the
// degrade-to-bound rejection under blocked and delayed next-hops.
func TestMatrixPathEdgeCases(t *testing.T) {
	ws := NewWorkspace()
	t.Run("src==dst", func(t *testing.T) {
		s, parts, doors := corridorSpace(t)
		pf := NewPathFinder(s)
		o := NewOracle(pf)
		a := pf.StateOf(doors[0], parts[1])
		if d := o.Dist(a, a); d != 0 {
			t.Fatalf("Dist(a,a) = %v, want 0", d)
		}
		hops, dist, ok := o.AppendStaticPathIfAllowed(ws, nil, a, a, Costs{})
		if !ok || len(hops) != 0 || dist != 0 {
			t.Fatalf("static path a→a = %+v dist=%v ok=%v, want empty ok", hops, dist, ok)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		s := splitSpace(t)
		pf := NewPathFinder(s)
		o := NewOracle(pf)
		// States of door 0 and door 1 live in disconnected fragments.
		a := pf.StatesOfDoor(0)[0]
		b := pf.StatesOfDoor(1)[0]
		if hops, _, ok := o.AppendStaticPathIfAllowed(ws, nil, a, b, Costs{}); ok || hops != nil {
			t.Fatalf("cross-fragment static path = %+v ok=%v, want nil false", hops, ok)
		}
	})

	t.Run("blocked-and-delayed-next-hop", func(t *testing.T) {
		s, parts, doors := corridorSpace(t)
		pf := NewPathFinder(s)
		o := NewOracle(pf)
		a := pf.StateOf(doors[0], parts[1]) // at d0 entered h1
		b := pf.StateOf(doors[1], parts[2]) // at d1 entered h2: one hop via d1
		if _, _, ok := o.AppendStaticPathIfAllowed(ws, nil, a, b, ForbidOnly(func(d model.DoorID) bool { return d == doors[1] })); ok {
			t.Fatal("static path ignored a blocked on-path door")
		}
		delay := func(d model.DoorID) float64 {
			if d == doors[1] {
				return 3
			}
			return 0
		}
		if _, _, ok := o.AppendStaticPathIfAllowed(ws, nil, a, b, Costs{Delay: delay}); ok {
			t.Fatal("static path ignored a delayed on-path door (it is no longer provably optimal)")
		}
		// Blocking or delaying an off-path door leaves the static path exact.
		offPath := Costs{
			Block: func(d model.DoorID) bool { return d == doors[2] },
			Delay: func(d model.DoorID) float64 {
				if d == doors[2] {
					return 9
				}
				return 0
			},
		}
		want := pf.ShortestTreeWS(NewWorkspace(), []Seed{{State: a}}, Costs{}).Dist(b)
		hops, dist, ok := o.AppendStaticPathIfAllowed(ws, nil, a, b, offPath)
		if !ok || len(hops) != 1 || hops[0].Door != doors[1] || dist != want {
			t.Fatalf("off-path costs broke the static path: %+v dist=%v (want %v) ok=%v", hops, dist, want, ok)
		}
	})
}

func oracleFromRecord(pf *PathFinder, rec *OracleRecord, trusted bool) (*Oracle, error) {
	return OracleFromFlat(pf, rec.Hubs, rec.HubOff, rec.ToHub, rec.FromHub, rec.HubDist, trusted)
}

// TestOracleRecordRoundTrip: Export → OracleFromFlat reproduces the oracle
// bit-for-bit, and a record from a different space is rejected in both
// trust modes (the hub enumeration is recomputed and compared either way).
func TestOracleRecordRoundTrip(t *testing.T) {
	s := randomMall(t, 5)
	pf := NewPathFinder(s)
	o := NewOracle(pf)
	rec := o.Export()
	other := NewPathFinder(randomMall(t, 6))
	trustModes(t, func(t *testing.T, trusted bool) {
		got, err := oracleFromRecord(pf, rec, trusted)
		if err != nil {
			t.Fatalf("OracleFromFlat: %v", err)
		}
		if !reflect.DeepEqual(got.Export(), rec) {
			t.Fatal("round-tripped oracle differs")
		}
		if _, err := oracleFromRecord(other, rec, trusted); err == nil {
			t.Fatal("record from a different space accepted")
		}
	})
}

// TestOracleFromFlatRejectsBadInput: hub enumeration and table lengths are
// structural and checked in both modes; the distance values feed bounds,
// never indexing, so their scans run only untrusted.
func TestOracleFromFlatRejectsBadInput(t *testing.T) {
	s := randomMall(t, 5)
	pf := NewPathFinder(s)
	o := NewOracle(pf)
	if o.NumHubs() < 2 {
		t.Fatalf("venue has %d hubs; the cases below need two", o.NumHubs())
	}
	cases := []struct {
		name      string
		valueOnly bool
		mutate    func(*OracleRecord)
	}{
		{"missing hub", false, func(r *OracleRecord) { r.Hubs = r.Hubs[:len(r.Hubs)-1] }},
		{"wrong hub", false, func(r *OracleRecord) { r.Hubs[0] = r.Hubs[1] }},
		{"wrong floor offset", false, func(r *OracleRecord) { r.HubOff[1]++ }},
		{"short toHub table", false, func(r *OracleRecord) { r.ToHub = r.ToHub[:len(r.ToHub)-1] }},
		{"short hubDist table", false, func(r *OracleRecord) { r.HubDist = r.HubDist[1:] }},
		{"negative toHub", true, func(r *OracleRecord) { r.ToHub[0] = -1 }},
		{"NaN fromHub", true, func(r *OracleRecord) { r.FromHub[0] = math.NaN() }},
		{"nonzero hubDist diagonal", true, func(r *OracleRecord) { r.HubDist[0] = 2 }},
	}
	trustModes(t, func(t *testing.T, trusted bool) {
		for _, tc := range cases {
			rec := o.Export()
			tc.mutate(rec)
			_, err := oracleFromRecord(pf, rec, trusted)
			if accept := trusted && tc.valueOnly; accept != (err == nil) {
				t.Errorf("%s: accepted=%v, want %v (err %v)", tc.name, err == nil, accept, err)
			}
		}
	})
}

// TestOracleSingleFloor: with no stairways there are no hubs; every
// distinct-pair answer is the planar bound and no table is consulted.
func TestOracleSingleFloor(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	o := NewOracle(pf)
	if o.NumHubs() != 0 {
		t.Fatalf("single-floor venue has %d hubs, want 0", o.NumHubs())
	}
	a := pf.StateOf(doors[0], parts[1])
	b := pf.StateOf(doors[1], parts[2])
	if d, exact := o.DistExact(a, b); exact || d > pf.s.Door(doors[0]).Pos.Dist(pf.s.Door(doors[1]).Pos)+1e-9 {
		t.Fatalf("same-floor DistExact = (%v, %v)", d, exact)
	}
	if d, exact := o.DistExact(a, a); d != 0 || !exact {
		t.Fatalf("DistExact(a,a) = (%v, %v), want (0, true)", d, exact)
	}
	if o.Bytes() <= 0 {
		t.Error("Bytes() not positive")
	}
}

// TestOracleSameFloorLandmarkBound pins the tightened same-floor bound: it
// must never fall below the planar Euclidean bound it replaces, never exceed
// the static truth (TestOracleAdmissibility re-checks this against overlays),
// and it must strictly beat Euclid on some pairs — otherwise the resident
// hub labels buy no prune power and the tightening is dead code.
func TestOracleSameFloorLandmarkBound(t *testing.T) {
	improved := 0
	for seed := int64(1); seed <= 8; seed++ {
		s := randomMall(t, seed)
		pf := NewPathFinder(s)
		o := NewOracle(pf)
		ws := NewWorkspace()
		rng := rand.New(rand.NewSource(seed * 104729))
		n := pf.NumStates()
		for i := 0; i < 200; i++ {
			a := StateID(rng.Intn(n))
			bs := StateID(rng.Intn(n))
			if a == bs || o.floorOf[a] != o.floorOf[bs] {
				continue
			}
			pa := pf.s.Door(pf.states[a].door).Pos
			pb := pf.s.Door(pf.states[bs].door).Pos
			euclid := pa.PlanarDist(pb)
			d, exact := o.DistExact(a, bs)
			if exact {
				t.Fatalf("seed %d pair %v->%v: same-floor pair claims exactness", seed, a, bs)
			}
			if d < euclid-1e-12 {
				t.Fatalf("seed %d pair %v->%v: bound %v below Euclid %v", seed, a, bs, d, euclid)
			}
			pf.dijkstra(ws, []Seed{{State: a}}, Costs{}, nil)
			if static := ws.distAt(bs); d > static+1e-9*(1+d) {
				t.Fatalf("seed %d pair %v->%v: bound %v exceeds static truth %v", seed, a, bs, d, static)
			}
			if d > euclid+1e-9 {
				improved++
			}
		}
	}
	if improved == 0 {
		t.Fatal("landmark bound never improved on the Euclidean bound across all venues")
	}
}
