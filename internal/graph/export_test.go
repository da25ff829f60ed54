package graph

import (
	"math"
	"slices"
	"testing"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// Test-only exports for the external graph_test oracles.

// ReferenceTreeWS runs the seed kernel (refkernel_test.go) from the seeds
// to exhaustion on ws and returns its tree, the reference the mall-level
// oracle diffs the workspace kernel against.
func (pf *PathFinder) ReferenceTreeWS(ws *Workspace, seeds []Seed, costs Costs) *Tree {
	pf.refDijkstra(ws, seeds, costs)
	ws.tree = Tree{pf: pf, ws: ws, epoch: ws.epoch, seeds: seeds}
	return &ws.tree
}

// Parent returns s's parent state in the tree: NoState for seeds and for
// states the run never reached.
func (t *Tree) Parent(s StateID) StateID {
	t.check()
	if t.ws.mark[s] != t.ws.epoch {
		return NoState
	}
	return t.ws.parent[s]
}

// ReferenceLowerBound returns the pre-hoist |a,b|L over sk
// (refskeleton_test.go), the reference the mall-level bound oracle diffs
// Skeleton.LowerBound against bit for bit.
func (sk *Skeleton) ReferenceLowerBound() func(a, b geom.Point) float64 {
	return newRefSkeleton(sk).lowerBound
}

// ReferencePartitionBound returns the point-locating δ(ps, v, pt) over sk
// (refskeleton_test.go), the reference the mall-level bound oracle diffs
// the host-taking Skeleton.PartitionBound against bit for bit.
func (sk *Skeleton) ReferencePartitionBound() func(ps geom.Point, v model.PartitionID, pt geom.Point) float64 {
	return newRefSkeleton(sk).partitionBound
}

// PointLegCases are the leg sets the kernel oracles run point searches
// with, one leg per target: spread legs, equal legs of 2⁶⁰ (every dist+leg
// rounds to 2⁶⁰, so all reachable targets tie), and legs that top each
// target reachable in ref up to one sum.
func PointLegCases(ref *Tree, targets []StateID) map[string][]float64 {
	spread, huge, topUp := make([]float64, len(targets)), make([]float64, len(targets)), make([]float64, len(targets))
	for i, t := range targets {
		spread[i] = float64((i*37+int(t))%23) * 1.25
		huge[i] = 1 << 60
		if d := ref.Dist(t); !math.IsInf(d, 1) {
			topUp[i] = 1000 - d
		}
	}
	return map[string][]float64{"spread": spread, "huge": huge, "top-up": topUp}
}

// CheckPointStop runs a point search on ws and requires the reference's
// answer: the first target least in dist+leg over the exhaustive reference
// tree, reached along the same hops. With the huge legs a stop that fired
// on a tie (>= for >) answers with the nearest target instead of the first
// listed one.
func CheckPointStop(t *testing.T, label string, pf *PathFinder, ws *Workspace, seeds []Seed, targets []StateID, legs []float64, costs Costs, ref *Tree) {
	t.Helper()
	want, wantD := NoState, math.Inf(1)
	for i, tgt := range targets {
		if d := ref.Dist(tgt) + legs[i]; d < wantD {
			want, wantD = tgt, d
		}
	}
	tree := pf.ShortestTreeToStatesWS(ws, seeds, targets, legs, costs)
	got, gotD := tree.Nearest(targets, legs, math.Inf(1))
	if got != want || gotD != wantD {
		t.Fatalf("%s: point search answered %d at %v, reference %d at %v", label, got, gotD, want, wantD)
	}
	gotHops, _ := tree.AppendPathTo(nil, got)
	wantHops, _ := ref.AppendPathTo(nil, want)
	if !slices.Equal(gotHops, wantHops) {
		t.Fatalf("%s: hops %v, reference %v", label, gotHops, wantHops)
	}
}
