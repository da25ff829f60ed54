package graph

import (
	"math"
	"slices"
	"testing"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// kernelSpaces returns the test spaces the kernel oracles sweep: the flat
// corridor, the two-floor tower, and a disconnected pair of strips (for
// unreachable targets).
func kernelSpaces(t *testing.T) map[string]*model.Space {
	t.Helper()
	corridor, _, _ := corridorSpace(t)
	tower, _ := towerSpace(t)
	return map[string]*model.Space{
		"corridor": corridor,
		"tower":    tower,
		"split":    splitSpace(t),
		"stairtie": stairTieSpace(t),
	}
}

// stairTieSpace makes the kernel's (door, partition) tie-break observable.
// A state's in-partition predecessors all share a partition, so only a
// stairway arc can offer it a second, equal-cost parent from a different
// partition: here (b, h1) is reached at the same distance from (a, sa) over
// the stairway and from (e, sb) across the staircase, and the two parents
// order one way by door (a < e) and the other way by partition (sb < sa).
// Seeding both at cost 0 lets only the tie-break pick the parent.
func stairTieSpace(t *testing.T) *model.Space {
	t.Helper()
	b := model.NewBuilder()
	sb := b.AddPartition("sb", model.KindStaircase, geom.R(0, 0, 10, 10, 1))
	h1 := b.AddPartition("h1", model.KindHallway, geom.R(10, 0, 20, 10, 1))
	h2 := b.AddPartition("h2", model.KindHallway, geom.R(0, 10, 10, 20, 1))
	sa := b.AddPartition("sa", model.KindStaircase, geom.R(0, 0, 10, 10, 0))
	h0 := b.AddPartition("h0", model.KindHallway, geom.R(10, 0, 20, 10, 0))
	da := b.AddDoor(geom.Pt(10, 5, 0), sa, h0)
	e := geom.Pt(5, 10, 1)
	b.AddDoor(e, sb, h2)
	db := b.AddDoor(geom.Pt(10, 5, 1), sb, h1)
	b.AddStairway(da, db, e.Dist(geom.Pt(10, 5, 1)))
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// splitSpace builds two corridor fragments with no connection between them,
// so cross-fragment states are mutually unreachable.
func splitSpace(t *testing.T) *model.Space {
	t.Helper()
	b := model.NewBuilder()
	a0 := b.AddPartition("a0", model.KindHallway, geom.R(0, 0, 10, 10, 0))
	a1 := b.AddPartition("a1", model.KindHallway, geom.R(10, 0, 20, 10, 0))
	c0 := b.AddPartition("c0", model.KindHallway, geom.R(40, 0, 50, 10, 0))
	c1 := b.AddPartition("c1", model.KindHallway, geom.R(50, 0, 60, 10, 0))
	b.AddDoor(geom.Pt(10, 5, 0), a0, a1)
	b.AddDoor(geom.Pt(50, 5, 0), c0, c1)
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// kernelCostCases are the cost models the oracles run under: unconstrained,
// a blocked door, a delayed door, and both at once.
func kernelCostCases(s *model.Space) map[string]Costs {
	nd := s.NumDoors()
	blockOne := func(d model.DoorID) bool { return int(d) == nd/2 }
	delayOne := func(d model.DoorID) float64 {
		if int(d) == nd-1 {
			return 7.5
		}
		return 0
	}
	return map[string]Costs{
		"zero":        {},
		"block":       {Block: blockOne},
		"delay":       {Delay: delayOne},
		"block+delay": {Block: blockOne, Delay: delayOne},
	}
}

// TestKernelMatchesReference diffs the workspace kernel against the seed
// kernel state by state: same reachability, distances, parents and seed
// attribution for every source state and every ordered pair of source
// states under every cost case. One workspace per kernel is reused across
// all runs, so the test also exercises the O(1) epoch reset between
// unrelated queries.
func TestKernelMatchesReference(t *testing.T) {
	for name, s := range kernelSpaces(t) {
		t.Run(name, func(t *testing.T) {
			pf := NewPathFinder(s)
			ws, ref := NewWorkspace(), NewWorkspace()
			// Every single source, then every ordered pair of sources at
			// equal cost, so ties between seeds reach the tie-break too.
			// Seeds enter the queue in list order, so the pairs listed
			// against state order ([b, a] with a < b) push equal-distance
			// entries in reverse: a queue that pops ties in insertion
			// order (FIFO) or its reverse (LIFO) instead of by state
			// differs from the reference on one of the two orders (the
			// stairtie space makes the difference visible in the
			// parents).
			var seedSets [][]Seed
			for a := 0; a < pf.NumStates(); a++ {
				seedSets = append(seedSets, []Seed{{State: StateID(a), Cost: 1.25, EmitHop: true}})
				for b := 0; b < pf.NumStates(); b++ {
					if b != a {
						seedSets = append(seedSets, []Seed{{State: StateID(a), EmitHop: true}, {State: StateID(b)}})
					}
				}
			}
			for costName, costs := range kernelCostCases(s) {
				for src, seeds := range seedSets {
					pf.dijkstra(ws, seeds, costs, nil)
					pf.refDijkstra(ref, seeds, costs)
					for st := 0; st < pf.NumStates(); st++ {
						sid := StateID(st)
						dw, dr := ws.distAt(sid), ref.distAt(sid)
						if math.IsInf(dw, 1) != math.IsInf(dr, 1) {
							t.Fatalf("%s src %d state %d: reachability %v vs ref %v", costName, src, st, dw, dr)
						}
						if math.IsInf(dw, 1) {
							continue
						}
						if dw != dr {
							t.Fatalf("%s src %d state %d: dist %v vs ref %v", costName, src, st, dw, dr)
						}
						if ws.parent[sid] != ref.parent[sid] {
							t.Fatalf("%s src %d state %d: parent %d vs ref %d", costName, src, st, ws.parent[sid], ref.parent[sid])
						}
						if ws.seedOf[sid] != ref.seedOf[sid] {
							t.Fatalf("%s src %d state %d: seedOf %d vs ref %d", costName, src, st, ws.seedOf[sid], ref.seedOf[sid])
						}
					}
				}
			}
		})
	}
}

// TestKernelEarlyTerminationExact asserts the target-set early exit returns
// exactly the full run's answer: for every (source, target) pair the
// targeted run's distance and reconstructed hop sequence equal the seed
// kernel's exhaustive tree, including unreachable targets (which degrade to
// full exhaustion, not a wrong answer). A LazyTree per source, resumed over
// every target in turn, must give the same answers.
func TestKernelEarlyTerminationExact(t *testing.T) {
	for name, s := range kernelSpaces(t) {
		t.Run(name, func(t *testing.T) {
			pf := NewPathFinder(s)
			ws, wsLazy, wsRef := NewWorkspace(), NewWorkspace(), NewWorkspace()
			for src := 0; src < pf.NumStates(); src++ {
				seeds := []Seed{{State: StateID(src), EmitHop: true}}
				pf.refDijkstra(wsRef, seeds, Costs{})
				ref := Tree{pf: pf, ws: wsRef, epoch: wsRef.epoch, seeds: seeds}
				lazy := pf.LazyTreeWS(wsLazy, StateID(src))
				lazyRef := Tree{pf: pf, ws: wsRef, epoch: wsRef.epoch, seeds: []Seed{{State: StateID(src)}}}
				for dst := 0; dst < pf.NumStates(); dst++ {
					lazyHops, okL := lazy.AppendPathTo(nil, StateID(dst))
					wantLazy, okLW := lazyRef.AppendPathTo(nil, StateID(dst))
					if okL != okLW || !slices.Equal(lazyHops, wantLazy) || lazy.Dist(StateID(dst)) != ref.Dist(StateID(dst)) {
						t.Fatalf("%d->%d: lazy (%v, %v, %v) vs ref (%v, %v, %v)", src, dst,
							lazyHops, okL, lazy.Dist(StateID(dst)), wantLazy, okLW, ref.Dist(StateID(dst)))
					}
					got, okG := pf.ShortestToStateWS(ws, seeds, StateID(dst), Costs{})
					wantHops, okW := ref.AppendPathTo(nil, StateID(dst))
					if okG != okW {
						t.Fatalf("%d->%d: ok %v vs ref %v", src, dst, okG, okW)
					}
					if !okG {
						continue
					}
					if want := ref.Dist(StateID(dst)); got.Dist != want {
						t.Fatalf("%d->%d: dist %v vs ref %v", src, dst, got.Dist, want)
					}
					if len(got.Hops) != len(wantHops) {
						t.Fatalf("%d->%d: %d hops vs ref %d", src, dst, len(got.Hops), len(wantHops))
					}
					for i := range got.Hops {
						if got.Hops[i] != wantHops[i] {
							t.Fatalf("%d->%d hop %d: %+v vs ref %+v", src, dst, i, got.Hops[i], wantHops[i])
						}
					}
				}
			}
		})
	}
}

// TestWorkspaceEpochWrap forces the uint32 epoch wraparound and checks the
// stamp arrays are cleared rather than colliding with stale marks.
func TestWorkspaceEpochWrap(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	ws := NewWorkspace()
	target := pf.StateOf(doors[2], parts[3])
	seeds := []Seed{{State: pf.StateOf(doors[0], parts[1])}}
	want, ok := pf.ShortestToStateWS(ws, seeds, target, Costs{})
	if !ok {
		t.Fatal("corridor target unreachable")
	}
	wantDist := want.Dist
	ws.epoch = ^uint32(0) - 1 // two runs from wrapping
	for i := 0; i < 4; i++ {
		got, ok := pf.ShortestToStateWS(ws, seeds, target, Costs{})
		if !ok || got.Dist != wantDist {
			t.Fatalf("run %d across epoch wrap: dist %v ok=%v, want %v", i, got.Dist, ok, wantDist)
		}
	}
	if ws.epoch == 0 {
		t.Fatal("epoch stayed 0 after wrap")
	}
}

// TestTreeReadAfterReusePanics pins the borrow contract: a tree from
// ShortestTreeWS must panic, not return stale data, once its workspace has
// run another query.
func TestTreeReadAfterReusePanics(t *testing.T) {
	s, parts, doors := corridorSpace(t)
	pf := NewPathFinder(s)
	ws := NewWorkspace()
	seeds := []Seed{{State: pf.StateOf(doors[0], parts[1])}}
	tree := pf.ShortestTreeWS(ws, seeds, Costs{})
	if d := tree.Dist(pf.StateOf(doors[1], parts[2])); math.IsInf(d, 1) {
		t.Fatal("live tree should reach d1")
	}
	pf.dijkstra(ws, seeds, Costs{}, nil) // reuse the workspace
	defer func() {
		if recover() == nil {
			t.Fatal("Dist on an invalidated tree did not panic")
		}
	}()
	tree.Dist(0)
}

// TestKernelNegativeZeroSeed: a −0 seed cost runs exactly like +0. The
// queue orders distances by bit pattern, where −0 would sort after every
// other key, so start normalises it; the tables must match bit for bit,
// the seed's own distance included.
func TestKernelNegativeZeroSeed(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for name, s := range kernelSpaces(t) {
		t.Run(name, func(t *testing.T) {
			pf := NewPathFinder(s)
			pos, neg := NewWorkspace(), NewWorkspace()
			for a := 0; a < pf.NumStates(); a++ {
				other := StateID((a + 1) % pf.NumStates())
				pf.dijkstra(pos, []Seed{{State: StateID(a)}, {State: other, Cost: 0.5}}, Costs{}, nil)
				pf.dijkstra(neg, []Seed{{State: StateID(a), Cost: negZero}, {State: other, Cost: 0.5}}, Costs{}, nil)
				for st := 0; st < pf.NumStates(); st++ {
					sid := StateID(st)
					if dp, dn := pos.distAt(sid), neg.distAt(sid); math.Float64bits(dp) != math.Float64bits(dn) {
						t.Fatalf("src %d state %d: dist %v (%#x) under a −0 seed, %v (%#x) under +0",
							a, st, dn, math.Float64bits(dn), dp, math.Float64bits(dp))
					}
					if math.IsInf(pos.distAt(sid), 1) {
						continue
					}
					if pos.parent[sid] != neg.parent[sid] || pos.seedOf[sid] != neg.seedOf[sid] {
						t.Fatalf("src %d state %d: parent/seed %d/%d under a −0 seed, %d/%d under +0",
							a, st, neg.parent[sid], neg.seedOf[sid], pos.parent[sid], pos.seedOf[sid])
					}
				}
			}
		})
	}
}
