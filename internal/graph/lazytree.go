package graph

import "math"

// LazyTree is a paused static (zero-Costs) single-source kernel run: the
// one way KoE* recovers static paths, on either backend. Where
// ShortestTreeWS exhausts the graph up front, a LazyTree asks the kernel
// to settle only the requested target and pauses there, resuming from the
// frozen frontier on the next request — so one stamp tail pays only for
// the distance radius its expansion targets actually reach. Dijkstra's
// settled prefix is invariant under pausing (the kernel's strict total
// order makes the pop sequence unique), so every path a LazyTree returns is
// hop-for-hop the path a full tree would yield.
//
// A LazyTree borrows its workspace's storage: any later run on the
// workspace invalidates the tree, and resuming it then panics (the same
// contract as Tree).
type LazyTree struct {
	tree Tree
	seed [1]Seed
}

// LazyTreeWS starts a lazy static run from src on ws, claiming the
// workspace until its next run. The returned tree is borrowed workspace
// state, like ShortestTreeWS's.
func (pf *PathFinder) LazyTreeWS(ws *Workspace, src StateID) *LazyTree {
	lt := &ws.ltree
	lt.seed[0] = Seed{State: src}
	pf.start(ws, lt.seed[:])
	lt.tree = Tree{pf: pf, ws: ws, epoch: ws.epoch, seeds: lt.seed[:]}
	return lt
}

// resume runs the paused kernel until s settles; false means s is
// unreachable from src (the frontier drained first).
func (lt *LazyTree) resume(s StateID) bool {
	t := &lt.tree
	t.check()
	ws := t.ws
	if ws.settled[s] != ws.epoch {
		ws.tbuf = append(ws.tbuf[:0], s)
		t.pf.settle(ws, t.pf.adj, Costs{}, ws.tbuf)
	}
	return ws.settled[s] == ws.epoch
}

// AppendPathTo appends the static shortest hop sequence from src to s
// (excluding src's own hop, as Tree.AppendPathTo over an EmitHop-less
// seed), resuming the paused run as far as needed. ok is false when s is
// unreachable from src.
func (lt *LazyTree) AppendPathTo(dst []Hop, s StateID) ([]Hop, bool) {
	if !lt.resume(s) {
		return dst, false
	}
	return lt.tree.AppendPathTo(dst, s)
}

// AppendPathIfAllowed is AppendPathTo under the degrade-to-bound contract
// of DistanceSource: the path and its static distance come back only when
// no door on it is blocked or delayed under costs (Costs.AllowsStatic).
// On ok == false dst may carry a partial suffix, which callers reusing a
// buffer re-slice anyway.
func (lt *LazyTree) AppendPathIfAllowed(dst []Hop, s StateID, costs Costs) ([]Hop, float64, bool) {
	start := len(dst)
	dst, ok := lt.AppendPathTo(dst, s)
	if !ok || !costs.AllowsStatic(dst[start:]) {
		return dst, 0, false
	}
	return dst, lt.tree.Dist(s), true
}

// Dist returns the static distance from src to s, resuming as needed;
// +Inf when unreachable.
func (lt *LazyTree) Dist(s StateID) float64 {
	if !lt.resume(s) {
		return math.Inf(1)
	}
	return lt.tree.Dist(s)
}
