// Mall-level kernel oracle: the workspace kernel against the seed kernel
// kept in refkernel_test.go (reached through export_test.go), state by
// state, on both evaluation malls under bare, closure, delay and mixed
// overlays. Identical dist/parent/seedOf tables make every search built on
// the kernel identical by construction, so this is the kernel's equivalence
// gate; the search package's exhaustive route baselines stay on top of it.
// External test package because it drives the generated malls.
package graph_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/geom"
	"ikrq/internal/graph"
	"ikrq/internal/model"
)

// TestKernelStateOracle is the gate on the synthetic mall and (outside
// -short) the simulated real mall.
func TestKernelStateOracle(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		mall, voc, idx, err := gen.SyntheticMall(2, 7)
		if err != nil {
			t.Fatal(err)
		}
		pf := graph.NewPathFinder(mall.Space)
		qg := gen.NewQueryGen(mall, idx, voc, pf, 23)
		stateOracle(t, pf, qg, gen.DefaultQueryConfig(23), 271)
	})
	t.Run("real", func(t *testing.T) {
		if testing.Short() {
			t.Skip("real-mall state oracle skipped in -short")
		}
		mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		pf := graph.NewPathFinder(mall.Space)
		qg := gen.NewQueryGen(mall, idx, voc, pf, 29)
		cfg := gen.DefaultQueryConfig(29)
		cfg.Alpha = 0.7 // Section V-B default for the real dataset
		stateOracle(t, pf, qg, cfg, 83)
	})
}

// oracleSources is how many evenly spaced source states each mall samples.
const oracleSources = 24

// stateOracle runs every overlay's exhaustive and targeted checks. One
// kernel workspace serves every run, so each check also starts on the
// previous run's leftovers: a paused frontier, stale stamps and targets.
func stateOracle(t *testing.T, pf *graph.PathFinder, qg *gen.QueryGen, cfg gen.QueryConfig, condSeed uint64) {
	t.Helper()
	s := pf.Space()
	cfg.Instances = 4
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seedSets [][]graph.Seed
	for i := 0; i < oracleSources; i++ {
		src := graph.StateID(i * pf.NumStates() / oracleSources)
		seedSets = append(seedSets, []graph.Seed{{State: src, Cost: 1.25, EmitHop: true}})
	}
	for _, r := range reqs {
		seedSets = append(seedSets, pf.SeedsFromPoint(r.Ps), pf.SeedsFromPoint(r.Pt))
	}
	// Label sets, the shape of the sequence planner's stage seeds: a
	// partition's entry states at distinct costs, none emitting its door.
	for k := 0; k < 4; k++ {
		var labels []graph.Seed
		for j, st := range appendEntryStates(nil, pf, model.PartitionID((2*k+1)*s.NumPartitions()/8)) {
			labels = append(labels, graph.Seed{State: st, Cost: 2.5*float64(j) + 0.75})
		}
		seedSets = append(seedSets, labels)
	}
	// Target sets: the entry states of a few partitions each, the shape
	// the sequence planner requests.
	var targetSets [][]graph.StateID
	for k := 0; k < 6; k++ {
		var set []graph.StateID
		for j := 0; j < 3; j++ {
			v := model.PartitionID((k*3 + j) * s.NumPartitions() / 18)
			set = appendEntryStates(set, pf, v)
		}
		targetSets = append(targetSets, set)
	}

	ws, wsFresh, wsRef := graph.NewWorkspace(), graph.NewWorkspace(), graph.NewWorkspace()
	for _, oc := range oracleOverlays(s, condSeed) {
		costs := graph.Costs{}
		if oc.cond != nil {
			costs = graph.Costs{Block: oc.cond.Closed, Delay: oc.cond.Penalty}
		}
		for i, seeds := range seedSets {
			ref := pf.ReferenceTreeWS(wsRef, seeds, costs)
			checkTables(t, oc.name, i, pf, pf.ShortestTreeWS(ws, seeds, costs), ref)
			checkPausedRun(t, oc.name, i, pf, ws, wsFresh, seeds, costs, ref)
			for j, targets := range targetSets {
				checkTargetSet(t, oc.name, i, j, pf, ws, seeds, targets, costs, ref)
			}
		}
		for i, r := range reqs {
			seeds := pf.SeedsFromPoint(r.Ps)
			ref := pf.ReferenceTreeWS(wsRef, seeds, costs)
			checkPointTarget(t, oc.name, i, pf, ws, seeds, r.Pt, costs, ref)
		}
	}
	checkLazyTree(t, pf, ws, wsRef)
}

type oracleOverlay struct {
	name string
	cond *model.Conditions
}

// oracleOverlays are the overlay scenarios: none, closures only, delays
// only, and both.
func oracleOverlays(s *model.Space, seed uint64) []oracleOverlay {
	return []oracleOverlay{
		{"bare", nil},
		{"closures", gen.SampleConditions(s, seed, gen.ConditionsConfig{Closures: 4})},
		{"delays", gen.SampleConditions(s, seed+1, gen.ConditionsConfig{Delays: 4, MinDelay: 5, MaxDelay: 60})},
		{"mixed", gen.SampleConditions(s, seed+2, gen.ConditionsConfig{Closures: 3, Delays: 3, MinDelay: 5, MaxDelay: 60})},
	}
}

func appendEntryStates(dst []graph.StateID, pf *graph.PathFinder, v model.PartitionID) []graph.StateID {
	for _, d := range pf.Space().Partition(v).EnterDoors() {
		if st := pf.StateOf(d, v); st != graph.NoState {
			dst = append(dst, st)
		}
	}
	return dst
}

// checkTables requires an exhaustive kernel run to equal the reference in
// every state's distance, parent and originating seed.
func checkTables(t *testing.T, overlay string, run int, pf *graph.PathFinder, got, want *graph.Tree) {
	t.Helper()
	for st := 0; st < pf.NumStates(); st++ {
		sid := graph.StateID(st)
		if g, w := got.Dist(sid), want.Dist(sid); g != w {
			t.Fatalf("%s run %d state %d: dist %v, reference %v", overlay, run, st, g, w)
		}
		if g, w := got.Parent(sid), want.Parent(sid); g != w {
			t.Fatalf("%s run %d state %d: parent %d, reference %d", overlay, run, st, g, w)
		}
		if g, w := got.Seed(sid), want.Seed(sid); g != w {
			t.Fatalf("%s run %d state %d: seed %d, reference %d", overlay, run, st, g, w)
		}
	}
}

// checkPath requires a targeted answer to carry the reference's distance
// and hop sequence to target (ok=false exactly when it is unreachable).
func checkPath(t *testing.T, label string, got graph.Path, ok bool, wantDist float64, ref *graph.Tree, target graph.StateID) {
	t.Helper()
	wantHops, wantOK := ref.AppendPathTo(nil, target)
	if ok != wantOK {
		t.Fatalf("%s: ok %v, reference %v", label, ok, wantOK)
	}
	if !ok {
		return
	}
	if got.Dist != wantDist {
		t.Fatalf("%s: dist %v, reference %v", label, got.Dist, wantDist)
	}
	if !slices.Equal(got.Hops, wantHops) {
		t.Fatalf("%s: hops %v, reference %v", label, got.Hops, wantHops)
	}
}

// checkPausedRun resumes one paused run from the seeds under costs over 16
// evenly spaced targets in a scattered order, and starts a fresh run per
// target on wsFresh: both must answer every target with the reference's
// distance and hop sequence.
func checkPausedRun(t *testing.T, overlay string, run int, pf *graph.PathFinder, ws, wsFresh *graph.Workspace, seeds []graph.Seed, costs graph.Costs, ref *graph.Tree) {
	t.Helper()
	const targets = 16
	resumed := pf.LazyTreeWS(ws, seeds, costs)
	for k := 0; k < targets; k++ {
		tgt := graph.StateID(((k*7)%targets*pf.NumStates() + run) / targets % pf.NumStates())
		for kind, lt := range map[string]*graph.LazyTree{"resumed": resumed, "fresh": pf.LazyTreeWS(wsFresh, seeds, costs)} {
			hops, ok := lt.AppendPathTo(nil, tgt)
			checkPath(t, labelf(overlay, run, kind, int(tgt)), graph.Path{Hops: hops, Dist: lt.Dist(tgt)}, ok, ref.Dist(tgt), ref, tgt)
		}
	}
}

// checkTargetSet runs one target set both ways the kernel serves it: a
// paused tree read at every target, and point searches over the set under
// every leg case.
func checkTargetSet(t *testing.T, overlay string, run, set int, pf *graph.PathFinder, ws *graph.Workspace, seeds []graph.Seed, targets []graph.StateID, costs graph.Costs, ref *graph.Tree) {
	t.Helper()
	tree := pf.ShortestTreeToStatesWS(ws, seeds, targets, nil, costs)
	for _, tgt := range targets {
		label := labelf(overlay, run, "set-tree", int(tgt))
		if g, w := tree.Dist(tgt), ref.Dist(tgt); g != w {
			t.Fatalf("%s: dist %v, reference %v", label, g, w)
		}
		if g, w := tree.Seed(tgt), ref.Seed(tgt); g != w {
			t.Fatalf("%s: seed %d, reference %d", label, g, w)
		}
		hops, ok := tree.AppendPathTo(nil, tgt)
		checkPath(t, label, graph.Path{Hops: hops, Dist: tree.Dist(tgt)}, ok, ref.Dist(tgt), ref, tgt)
	}
	for legName, legs := range graph.PointLegCases(ref, targets) {
		graph.CheckPointStop(t, labelf(overlay, run, "point-stop "+legName, set), pf, ws, seeds, targets, legs, costs, ref)
	}
}

// checkPointTarget routes to a point: the reference answer is the cheapest
// entry state of the point's partition plus its door-to-point leg, the
// first such state winning ties.
func checkPointTarget(t *testing.T, overlay string, run int, pf *graph.PathFinder, ws *graph.Workspace, seeds []graph.Seed, pt geom.Point, costs graph.Costs, ref *graph.Tree) {
	t.Helper()
	s := pf.Space()
	host := s.HostPartition(pt)
	best, bestD := graph.NoState, math.Inf(1)
	for _, st := range appendEntryStates(nil, pf, host) {
		d, _ := pf.State(st)
		if v := ref.Dist(st) + s.Door(d).Pos.Dist(pt); v < bestD {
			best, bestD = st, v
		}
	}
	got, ok := pf.ShortestToPointWS(ws, seeds, pt, host, costs)
	label := labelf(overlay, run, "point", int(host))
	if best == graph.NoState {
		if ok {
			t.Fatalf("%s: found a path to an unreachable point", label)
		}
		return
	}
	checkPath(t, label, got, ok, bestD, ref, best)
}

// checkLazyTree resumes paused static runs over several targets each, in a
// scattered order with repeats, and requires every answer to equal the
// reference's exhaustive static tree from the same source.
func checkLazyTree(t *testing.T, pf *graph.PathFinder, ws, wsRef *graph.Workspace) {
	t.Helper()
	n := pf.NumStates()
	for i := 0; i < 6; i++ {
		src := graph.StateID((2*i + 1) * n / 12)
		seeds := []graph.Seed{{State: src}}
		ref := pf.ReferenceTreeWS(wsRef, seeds, graph.Costs{})
		lt := pf.LazyTreeWS(ws, seeds, graph.Costs{})
		for k := 0; k < 24; k++ {
			tgt := graph.StateID((k * 7919 * (i + 1)) % n)
			label := labelf("lazy", i, "state", int(tgt))
			if g, w := lt.Dist(tgt), ref.Dist(tgt); g != w {
				t.Fatalf("%s: dist %v, reference %v", label, g, w)
			}
			hops, ok := lt.AppendPathTo(nil, tgt)
			checkPath(t, label, graph.Path{Hops: hops, Dist: ref.Dist(tgt)}, ok, ref.Dist(tgt), ref, tgt)
		}
	}
}

func labelf(overlay string, run int, kind string, target int) string {
	return fmt.Sprintf("%s run %d %s %d", overlay, run, kind, target)
}
