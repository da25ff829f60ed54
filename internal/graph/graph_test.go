package graph

import (
	"math"
	"testing"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// corridorSpace is a single-floor strip of three hallway cells with one
// dead-end shop hanging off the middle cell:
//
//	h0 --d0-- h1 --d1-- h2
//	           |
//	          d2
//	           |
//	         shop (dead end)
//
// Geometry: cells are 10m wide, doors on the shared walls.
func corridorSpace(t *testing.T) (*model.Space, []model.PartitionID, []model.DoorID) {
	t.Helper()
	b := model.NewBuilder()
	h0 := b.AddPartition("h0", model.KindHallway, geom.R(0, 0, 10, 10, 0))
	h1 := b.AddPartition("h1", model.KindHallway, geom.R(10, 0, 20, 10, 0))
	h2 := b.AddPartition("h2", model.KindHallway, geom.R(20, 0, 30, 10, 0))
	shop := b.AddPartition("shop", model.KindRoom, geom.R(12, 10, 18, 16, 0))
	d0 := b.AddDoor(geom.Pt(10, 5, 0), h0, h1)
	d1 := b.AddDoor(geom.Pt(20, 5, 0), h1, h2)
	d2 := b.AddDoor(geom.Pt(15, 10, 0), h1, shop)
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s, []model.PartitionID{h0, h1, h2, shop}, []model.DoorID{d0, d1, d2}
}

// towerSpace stacks two corridor floors connected by a staircase at the
// left end.
func towerSpace(t *testing.T) (*model.Space, []model.DoorID) {
	t.Helper()
	b := model.NewBuilder()
	var stairDoors []model.DoorID
	for f := 0; f < 2; f++ {
		h0 := b.AddPartition("h0", model.KindHallway, geom.R(0, 0, 10, 10, f))
		h1 := b.AddPartition("h1", model.KindHallway, geom.R(10, 0, 20, 10, f))
		st := b.AddPartition("stair", model.KindStaircase, geom.R(-5, 0, 0, 5, f))
		b.AddDoor(geom.Pt(10, 5, f), h0, h1)
		sd := b.AddDoor(geom.Pt(0, 2.5, f), st, h0)
		stairDoors = append(stairDoors, sd)
	}
	b.AddStairway(stairDoors[0], stairDoors[1], 20)
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s, stairDoors
}

func TestShortestToPointAlongCorridor(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)

	ps := geom.Pt(2, 5, 0)  // in h0
	pt := geom.Pt(28, 5, 0) // in h2
	path, ok := pf.ShortestToPointWS(NewWorkspace(), pf.SeedsFromPoint(ps), pt, parts[2], Costs{})
	if !ok {
		t.Fatal("no path found")
	}
	want := 8.0 + 10.0 + 8.0 // ps->d0, d0->d1, d1->pt
	if math.Abs(path.Dist-want) > 1e-9 {
		t.Errorf("dist = %v, want %v", path.Dist, want)
	}
	if len(path.Hops) != 2 || path.Hops[0].Door != doors[0] || path.Hops[1].Door != doors[1] {
		t.Errorf("hops = %+v, want d0 then d1", path.Hops)
	}
	if path.Hops[0].Part != parts[1] || path.Hops[1].Part != parts[2] {
		t.Errorf("entered partitions = %+v, want h1 then h2", path.Hops)
	}
}

func TestSelfLoopExitsDeadEnd(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	shop, h1 := parts[3], parts[1]
	d2 := doors[2]

	// From inside the shop (entered via d2) to a point in h2: the only way
	// out is the self-loop (d2, d2), an ordinary arc of the state graph, so
	// the lone seed at the entry state needs no extra self-loop seeds.
	seeds := []Seed{{State: pf.StateOf(d2, shop)}}
	pt := geom.Pt(25, 5, 0)
	path, ok := pf.ShortestToPointWS(NewWorkspace(), seeds, pt, parts[2], Costs{})
	if !ok {
		t.Fatal("no path out of dead end")
	}
	if len(path.Hops) < 2 || path.Hops[0].Door != d2 || path.Hops[0].Part != h1 {
		t.Errorf("first hop = %+v, want the self-loop (d2, h1)", path.Hops)
	}
	loop := s.SelfLoopDist(d2, shop)
	want := loop + s.Door(d2).Pos.Dist(s.Door(doors[1]).Pos) + s.Door(doors[1]).Pos.Dist(pt)
	if math.Abs(path.Dist-want) > 1e-9 {
		t.Errorf("dist = %v, want %v", path.Dist, want)
	}
}

func TestForbiddenDoorBlocksPath(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	ps := geom.Pt(2, 5, 0)
	pt := geom.Pt(28, 5, 0)
	forbidden := func(d model.DoorID) bool { return d == doors[1] }
	if _, ok := pf.ShortestToPointWS(NewWorkspace(), pf.SeedsFromPoint(ps), pt, parts[2], ForbidOnly(forbidden)); ok {
		t.Error("path found through the only (forbidden) connector")
	}
	_ = s
}

func TestNoBounceBack(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	// State (d0 entered h1): arcs must not lead back into h0 via d0 with
	// zero cost; the only d0 arc allowed is the explicit self-loop.
	sid := pf.StateOf(doors[0], parts[1])
	if sid == NoState {
		t.Fatal("missing state")
	}
	for _, a := range pf.adj[sid] {
		d, p := pf.State(a.to)
		if d == doors[0] && p == parts[1] {
			t.Errorf("arc bounces back into the partition being left")
		}
		if d == doors[0] && a.w == 0 {
			t.Errorf("zero-cost turnaround arc present")
		}
	}
	_ = s
}

func TestPointToPointSamePartition(t *testing.T) {
	s, _, _ := corridorSpace(t)
	pf := NewPathFinder(s)
	a, b := geom.Pt(1, 1, 0), geom.Pt(9, 9, 0)
	want := a.Dist(b)
	if got := pf.PointToPoint(a, b); math.Abs(got-want) > 1e-9 {
		t.Errorf("PointToPoint = %v, want straight segment %v", got, want)
	}
	if got := pf.PointToPoint(a, geom.Pt(-100, 0, 0)); !math.IsInf(got, 1) {
		t.Errorf("PointToPoint to outdoor point = %v, want +Inf", got)
	}
}

func TestCrossFloorRouting(t *testing.T) {
	s, stairDoors := towerSpace(t)
	pf := NewPathFinder(s)
	ps := geom.Pt(15, 5, 0) // h1 on floor 0
	pt := geom.Pt(15, 5, 1) // h1 on floor 1
	hostPt := s.HostPartition(pt)
	path, ok := pf.ShortestToPointWS(NewWorkspace(), pf.SeedsFromPoint(ps), pt, hostPt, Costs{})
	if !ok {
		t.Fatal("no cross-floor path")
	}
	// ps → d(h0,h1)@f0 → sd0 (entering the staircase) → stairway (20m,
	// exiting through sd1 into h0@f1) → d(h0,h1)@f1 → pt.
	leg := math.Hypot(10, 2.5)
	want := 5 + leg + 20 + leg + 5
	if math.Abs(path.Dist-want) > 1e-9 {
		t.Errorf("cross-floor dist = %v, want %v", path.Dist, want)
	}
	// The hop sequence passes both staircase doors.
	foundSD0, foundSD1 := false, false
	for _, h := range path.Hops {
		if h.Door == stairDoors[0] {
			foundSD0 = true
		}
		if h.Door == stairDoors[1] {
			foundSD1 = true
		}
	}
	if !foundSD0 || !foundSD1 {
		t.Errorf("hops missing staircase doors: %+v", path.Hops)
	}
}

func TestRegularHops(t *testing.T) {
	h := func(d model.DoorID) Hop { return Hop{Door: d} }
	if !RegularHops([]Hop{h(1), h(2), h(3)}) {
		t.Error("plain sequence flagged irregular")
	}
	if !RegularHops([]Hop{h(1), h(1), h(2)}) {
		t.Error("consecutive loop flagged irregular")
	}
	if RegularHops([]Hop{h(1), h(2), h(1)}) {
		t.Error("non-consecutive repeat flagged regular")
	}
}

func TestDistancesFromPoint(t *testing.T) {
	s, _, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	ps := geom.Pt(2, 5, 0)
	d := pf.DistancesFromPoint(ps)
	if math.Abs(d[doors[0]]-8) > 1e-9 {
		t.Errorf("dist to d0 = %v, want 8", d[doors[0]])
	}
	if math.Abs(d[doors[1]]-18) > 1e-9 {
		t.Errorf("dist to d1 = %v, want 18", d[doors[1]])
	}
	_ = s
}

func TestSkeletonSameFloorIsEuclidean(t *testing.T) {
	s, _, _ := corridorSpace(t)
	sk := NewSkeleton(s)
	a, b := geom.Pt(0, 0, 0), geom.Pt(30, 10, 0)
	if got, want := sk.LowerBound(a, b), a.Dist(b); math.Abs(got-want) > 1e-9 {
		t.Errorf("LowerBound = %v, want %v", got, want)
	}
}

func TestSkeletonCrossFloor(t *testing.T) {
	s, stairDoors := towerSpace(t)
	sk := NewSkeleton(s)
	a := geom.Pt(15, 5, 0)
	b := geom.Pt(15, 5, 1)
	sd0 := s.Door(stairDoors[0]).Pos
	sd1 := s.Door(stairDoors[1]).Pos
	want := a.PlanarDist(sd0) + 20 + sd1.PlanarDist(b)
	if got := sk.LowerBound(a, b); math.Abs(got-want) > 1e-9 {
		t.Errorf("LowerBound = %v, want %v", got, want)
	}
	if got := s2s(sk, stairDoors[0], stairDoors[1]); math.Abs(got-20) > 1e-9 {
		t.Errorf("δs2s = %v, want 20", got)
	}
	if got := s2s(sk, stairDoors[0], model.DoorID(999)); !math.IsInf(got, 1) {
		t.Errorf("δs2s to unknown door = %v, want +Inf", got)
	}
}

// TestSkeletonIsLowerBound is the soundness property behind Pruning Rules
// 1, 2 and 4: for sampled point pairs the skeleton bound never exceeds the
// true indoor shortest distance.
func TestSkeletonIsLowerBound(t *testing.T) {
	s, _, _ := corridorSpace(t)
	pf := NewPathFinder(s)
	sk := NewSkeleton(s)
	rng := geom.NewRand(17)
	for i := 0; i < 300; i++ {
		a := geom.Pt(rng.InRange(0, 30), rng.InRange(0, 10), 0)
		b := geom.Pt(rng.InRange(0, 30), rng.InRange(0, 10), 0)
		if s.HostPartition(a) == model.NoPartition || s.HostPartition(b) == model.NoPartition {
			continue
		}
		truth := pf.PointToPoint(a, b)
		if math.IsInf(truth, 1) {
			continue
		}
		if lb := sk.LowerBound(a, b); lb > truth+1e-9 {
			t.Fatalf("skeleton bound %v exceeds true distance %v for %v -> %v", lb, truth, a, b)
		}
	}
}

func TestPartitionBound(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	sk := NewSkeleton(s)
	ps := geom.Pt(2, 5, 0)
	pt := geom.Pt(28, 5, 0)
	bound := func(v model.PartitionID, pt geom.Point) float64 {
		return sk.PartitionBound(ps, s.HostPartition(ps), v, pt, s.HostPartition(pt))
	}
	// Through the dead-end shop: enter and leave through d2, paying the
	// self-loop, plus the straight legs.
	want := ps.Dist(s.Door(doors[2]).Pos) + s.SelfLoopDist(doors[2], parts[3]) + s.Door(doors[2]).Pos.Dist(pt)
	if got := bound(parts[3], pt); math.Abs(got-want) > 1e-9 {
		t.Errorf("PartitionBound via shop = %v, want %v", got, want)
	}
	// Through h1: straight-line legs via its doors; must be ≤ the direct
	// route distance.
	if got := bound(parts[1], pt); got > 26+1e-9 {
		t.Errorf("PartitionBound via h1 = %v, want ≤ 26", got)
	}
	// When the partition hosts pt the crossing term is dropped.
	ptInH1 := geom.Pt(15, 5, 0)
	got := bound(parts[1], ptInH1)
	want = ps.Dist(s.Door(doors[0]).Pos) + s.Door(doors[0]).Pos.Dist(ptInH1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PartitionBound to host of pt = %v, want %v", got, want)
	}
}

func TestShortestToStates(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	ps := geom.Pt(2, 5, 0)
	target := pf.StateOf(doors[2], parts[3]) // door d2 entered into shop
	run := pf.LazyTreeWS(NewWorkspace(), pf.SeedsFromPoint(ps), Costs{})
	hops, ok := run.AppendPathTo(nil, target)
	if !ok {
		t.Fatal("paused run did not reach the shop door")
	}
	want := ps.Dist(s.Door(doors[0]).Pos) +
		s.Door(doors[0]).Pos.Dist(s.Door(doors[2]).Pos)
	if d := run.Dist(target); math.Abs(d-want) > 1e-9 {
		t.Errorf("dist = %v, want %v", d, want)
	}
	if len(hops) != 2 {
		t.Errorf("hops = %+v", hops)
	}
}

func TestStateOfMissing(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	// d0 connects h0 and h1 only; the shop is not enterable through it.
	if sid := pf.StateOf(doors[0], parts[3]); sid != NoState {
		t.Errorf("StateOf(d0, shop) = %v, want NoState", sid)
	}
	_ = s
}

// wideStairSpace stacks two hallways joined by the given number of
// staircases, each with one door per floor and a stairway between them:
// more staircase doors per floor than LowerBound's chunk when stairs >
// lbChunk.
func wideStairSpace(t *testing.T, stairs int) *model.Space {
	t.Helper()
	b := model.NewBuilder()
	w := float64(10 * stairs)
	var doors [2][]model.DoorID
	for f := 0; f < 2; f++ {
		hall := b.AddPartition("hall", model.KindHallway, geom.R(0, 0, w, 10, f))
		for k := 0; k < stairs; k++ {
			x := float64(10 * k)
			st := b.AddPartition("stair", model.KindStaircase, geom.R(x, 10, x+10, 15, f))
			doors[f] = append(doors[f], b.AddDoor(geom.Pt(x+5, 10, f), st, hall))
		}
	}
	for k := 0; k < stairs; k++ {
		b.AddStairway(doors[0][k], doors[1][k], float64(5+k%7))
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// TestSkeletonLowerBoundChunks runs floors with fewer, exactly as many and
// more staircase doors than LowerBound's stack chunk: every cross-floor
// bound must equal the pre-hoist reference bit for bit, and no call may
// allocate.
func TestSkeletonLowerBoundChunks(t *testing.T) {
	for _, stairs := range []int{3, lbChunk, lbChunk + 6, 2*lbChunk + 1} {
		s := wideStairSpace(t, stairs)
		sk := NewSkeleton(s)
		ref := newRefSkeleton(sk)
		rng := geom.NewRand(uint64(stairs))
		w := float64(10 * stairs)
		for i := 0; i < 200; i++ {
			a := geom.Pt(rng.InRange(0, w), rng.InRange(0, 15), i%2)
			b := geom.Pt(rng.InRange(0, w), rng.InRange(0, 15), 1-i%2)
			got, want := sk.LowerBound(a, b), ref.lowerBound(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d stairs: LowerBound(%v, %v) = %v, reference %v", stairs, a, b, got, want)
			}
		}
		a, b := geom.Pt(1, 1, 0), geom.Pt(w-1, 1, 1)
		if n := testing.AllocsPerRun(100, func() { sk.LowerBound(a, b) }); n != 0 {
			t.Fatalf("%d stairs: LowerBound allocates %v times per call", stairs, n)
		}
	}
	// A floor outside the space has no staircase doors: no bound.
	sk := NewSkeleton(wideStairSpace(t, 3))
	if got := sk.LowerBound(geom.Pt(1, 1, 0), geom.Pt(1, 1, 5)); !math.IsInf(got, 1) {
		t.Fatalf("bound to a floor outside the space = %v, want +Inf", got)
	}
}
