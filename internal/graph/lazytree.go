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

// resume runs the paused kernel until s settles or the run settles a state
// beyond stop; false means s did not settle (unreachable from the seeds, or
// left beyond a stop that fired first).
func (lt *LazyTree) resume(s StateID, stop DistStop) bool {
	t := &lt.tree
	if !t.settled(s) {
		ws := t.ws
		ws.tbuf = append(ws.tbuf[:0], s)
		t.pf.settle(ws, t.pf.adj, lt.costs, ws.tbuf, nil, stop)
	}
	return t.settled(s)
}

// AppendPathTo appends the shortest hop sequence from the seeds to s (a
// seed's own door only when its EmitHop is set, as Tree.AppendPathTo),
// resuming the paused run as far as needed. ok is false when s is
// unreachable.
func (lt *LazyTree) AppendPathTo(dst []Hop, s StateID) ([]Hop, bool) {
	dst, ok, _ := lt.AppendPathWithin(dst, s, NoStop)
	return dst, ok
}

// AppendPathWithin is AppendPathTo under a distance stop: it reads s only
// when s's distance is within stop, and resumes the run no further than the
// first settled state beyond it. beyond reports that s lies beyond the stop
// (or is unreachable, when the stop fired before the frontier drained); ok
// is false then, and when s is unreachable. The paused run stays resumable
// for any later read, s included.
func (lt *LazyTree) AppendPathWithin(dst []Hop, s StateID, stop DistStop) (hops []Hop, ok, beyond bool) {
	if !lt.resume(s, stop) {
		return dst, false, lt.tree.ws.qMask != 0
	}
	if stop.Beyond(lt.tree.Dist(s)) {
		return dst, false, true
	}
	hops, ok = lt.tree.AppendPathTo(dst, s)
	return hops, ok, false
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
	if !lt.resume(s, NoStop) {
		return math.Inf(1)
	}
	return lt.tree.Dist(s)
}
