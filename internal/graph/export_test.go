package graph

import "ikrq/internal/geom"

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
