package graph

import "math"

// LazyTree is a paused kernel run from a seed set under a cost model.
// Where ShortestTreeWS exhausts the graph up front, a LazyTree asks the
// kernel to settle only the requested target and pauses there, resuming
// from the frozen frontier on the next request — so a run pays only for the
// distance radius its targets actually reach. Dijkstra's settled prefix is
// invariant under pausing (the kernel's strict total order makes the pop
// sequence unique), so every path a LazyTree returns is hop-for-hop the
// path a full tree — or a fresh run stopped at that target — would yield.
//
// KoE* recovers static paths from single-state runs under zero Costs, on
// either backend, and every KoE expansion reads its paths from one run
// from the stamp's seeds under the stamp's costs.
//
// A LazyTree borrows its workspace's storage: any later run on the
// workspace invalidates the tree, and resuming it then panics (the same
// contract as Tree).
type LazyTree struct {
	tree  Tree
	costs Costs
	seeds []Seed // the run's copy of its seeds, read by path reconstruction
}

// LazyTreeWS starts a paused run from seeds under costs on ws, claiming
// the workspace until its next run. The tree keeps its own copy of the
// seeds, so the caller may reuse the slice. The returned tree is borrowed
// workspace state, like ShortestTreeWS's.
func (pf *PathFinder) LazyTreeWS(ws *Workspace, seeds []Seed, costs Costs) *LazyTree {
	lt := &ws.ltree
	lt.seeds = append(lt.seeds[:0], seeds...)
	lt.costs = costs
	pf.start(ws, lt.seeds)
	lt.tree = Tree{pf: pf, ws: ws, epoch: ws.epoch, seeds: lt.seeds}
	return lt
}

// resume runs the paused kernel until s settles; false means s is
// unreachable from the seeds (the frontier drained first).
func (lt *LazyTree) resume(s StateID) bool {
	t := &lt.tree
	if !t.settled(s) {
		ws := t.ws
		ws.tbuf = append(ws.tbuf[:0], s)
		t.pf.settle(ws, t.pf.adj, lt.costs, ws.tbuf, nil)
	}
	return t.settled(s)
}

// AppendPathTo appends the shortest hop sequence from the seeds to s (a
// seed's own door only when its EmitHop is set, as Tree.AppendPathTo),
// resuming the paused run as far as needed. ok is false when s is
// unreachable.
func (lt *LazyTree) AppendPathTo(dst []Hop, s StateID) ([]Hop, bool) {
	if !lt.resume(s) {
		return dst, false
	}
	return lt.tree.AppendPathTo(dst, s)
}

// AppendPathIfAllowed is AppendPathTo on a zero-Costs run under the
// degrade-to-bound contract of DistanceSource: the path and its static
// distance come back only when no door on it is blocked or delayed under
// costs (Costs.AllowsStatic). On ok == false dst may carry a partial
// suffix, which callers reusing a buffer re-slice anyway.
func (lt *LazyTree) AppendPathIfAllowed(dst []Hop, s StateID, costs Costs) ([]Hop, float64, bool) {
	start := len(dst)
	dst, ok := lt.AppendPathTo(dst, s)
	if !ok || !costs.AllowsStatic(dst[start:]) {
		return dst, 0, false
	}
	return dst, lt.tree.Dist(s), true
}

// Dist returns the run's distance to s, resuming as needed; +Inf when
// unreachable.
func (lt *LazyTree) Dist(s StateID) float64 {
	if !lt.resume(s) {
		return math.Inf(1)
	}
	return lt.tree.Dist(s)
}
