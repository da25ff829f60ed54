package graph

import (
	"fmt"
	"math"
	"math/rand"
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

// TestKernelEarlyTerminationExact asserts the kernel's early exits give
// exactly the exhaustive answer, on every hand-built space under every cost
// case, from single seeds and from label-style seed sets at distinct costs:
//
//   - Paused runs. For every target, a fresh run stopped at it and one run
//     resumed over all targets in shuffled order must each return the seed
//     kernel's distance and hop sequence, including unreachable targets
//     (which degrade to full exhaustion, not a wrong answer).
//   - Point stops. A point search over a target list with per-target legs
//     must return the reference's answer: the least dist+leg, the earlier
//     target on ties. The leg sets include legs so large that every sum
//     rounds to the same value, so a stop that fires on a tie (>= for >)
//     answers with the nearest target instead of the first listed one.
func TestKernelEarlyTerminationExact(t *testing.T) {
	// The hand-built tie: from ps in the corridor's h0, the far target is
	// listed before the near one and both sums round to 2⁶⁰. The near
	// target settles first; the far one must still win on list order.
	t.Run("tie", func(t *testing.T) {
		s, parts, doors := corridorSpace(t)
		pf := NewPathFinder(s)
		near, far := pf.StateOf(doors[0], parts[1]), pf.StateOf(doors[1], parts[2])
		targets, legs := []StateID{far, near}, []float64{1 << 60, 1 << 60}
		tree := pf.ShortestTreeToStatesWS(NewWorkspace(), pf.SeedsFromPoint(geom.Pt(2, 5, 0)), targets, legs, Costs{})
		if got, d := tree.Nearest(targets, legs, math.Inf(1)); got != far || d != 1<<60 {
			t.Fatalf("point search answered %d at %v, want the first-listed tie %d at 2^60", got, d, far)
		}
	})
	for name, s := range kernelSpaces(t) {
		t.Run(name, func(t *testing.T) {
			pf := NewPathFinder(s)
			n := pf.NumStates()
			rng := rand.New(rand.NewSource(int64(n)))
			ws, wsFresh, wsRef := NewWorkspace(), NewWorkspace(), NewWorkspace()
			var seedSets [][]Seed
			for a := 0; a < n; a++ {
				seedSets = append(seedSets,
					[]Seed{{State: StateID(a), EmitHop: true}},
					[]Seed{{State: StateID(a), Cost: 0.5}, {State: StateID((a + 1) % n), Cost: 3.25, EmitHop: true}, {State: StateID((a + n/2) % n), Cost: 1.75}})
			}
			for costName, costs := range kernelCostCases(s) {
				for i, seeds := range seedSets {
					ref := pf.ReferenceTreeWS(wsRef, seeds, costs)
					resumed := pf.LazyTreeWS(ws, seeds, costs)
					for _, dst := range rng.Perm(n) {
						tgt := StateID(dst)
						wantHops, wantOK := ref.AppendPathTo(nil, tgt)
						for kind, lt := range map[string]*LazyTree{"resumed": resumed, "fresh": pf.LazyTreeWS(wsFresh, seeds, costs)} {
							hops, ok := lt.AppendPathTo(nil, tgt)
							if ok != wantOK || !slices.Equal(hops, wantHops) || lt.Dist(tgt) != ref.Dist(tgt) {
								t.Fatalf("%s seeds %d -> %d (%s run): (%v, %v, %v), reference (%v, %v, %v)", costName, i, dst, kind,
									hops, ok, lt.Dist(tgt), wantHops, wantOK, ref.Dist(tgt))
							}
						}
					}
					targets := make([]StateID, 0, n)
					for _, st := range rng.Perm(n)[:1+rng.Intn(n)] {
						targets = append(targets, StateID(st))
					}
					for legName, legs := range PointLegCases(ref, targets) {
						label := fmt.Sprintf("%s seeds %d %s legs", costName, i, legName)
						CheckPointStop(t, label, pf, ws, seeds, targets, legs, costs, ref)
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
	wantDist := pf.LazyTreeWS(ws, seeds, Costs{}).Dist(target)
	if math.IsInf(wantDist, 1) {
		t.Fatal("corridor target unreachable")
	}
	ws.epoch = ^uint32(0) - 1 // two runs from wrapping
	for i := 0; i < 4; i++ {
		if got := pf.LazyTreeWS(ws, seeds, Costs{}).Dist(target); got != wantDist {
			t.Fatalf("run %d across epoch wrap: dist %v, want %v", i, got, wantDist)
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
