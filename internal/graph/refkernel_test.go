package graph

import (
	"container/heap"
	"math"

	"ikrq/internal/model"
)

// This file keeps the seed shortest-path kernel, as a test-only reference:
// freshly allocated O(states) tables per run and container/heap's
// interface-typed binary heap with its (dist, door, partition) order. The kernel oracles (here
// and, through export_test.go, the mall-level oracle in package graph_test)
// diff the workspace kernel against it state by state.

// refDijkstra runs the seed kernel and copies its result into ws so
// downstream reads (reconstruction, matrix row extraction) are uniform
// across kernels. It never terminates early — the seed always exhausted the
// graph — which is exactly what makes it the oracle for the workspace
// kernel's target-set early exit.
func (pf *PathFinder) refDijkstra(ws *Workspace, seeds []Seed, costs Costs) {
	n := len(pf.states)
	dist := make([]float64, n)
	parent := make([]StateID, n)
	seedOf := make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = NoState
		seedOf[i] = -1
	}
	pq := &refHeap{}
	for si, sd := range seeds {
		if sd.State == NoState {
			continue
		}
		if sd.Cost < dist[sd.State] {
			dist[sd.State] = sd.Cost
			seedOf[sd.State] = int32(si)
			parent[sd.State] = NoState
			heap.Push(pq, pf.refItem(sd.State, sd.Cost))
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refItem)
		if it.dist > dist[it.state] {
			continue
		}
		for _, a := range pf.adj[it.state] {
			door := pf.states[a.to].door
			if costs.blocked(door) {
				continue
			}
			nd := it.dist + a.w + costs.delay(door)
			if nd < dist[a.to] {
				dist[a.to] = nd
				parent[a.to] = it.state
				seedOf[a.to] = seedOf[it.state]
				heap.Push(pq, pf.refItem(a.to, nd))
			}
		}
	}
	ws.begin(n)
	for i := range dist {
		if !math.IsInf(dist[i], 1) {
			ws.set(StateID(i), dist[i], parent[i], seedOf[i])
		}
	}
}

// refItem is the seed kernel's queue entry: the state, its tentative
// distance and the (door, partition) it breaks distance ties on.
type refItem struct {
	state StateID
	dist  float64
	door  model.DoorID
	part  model.PartitionID
}

func (pf *PathFinder) refItem(s StateID, d float64) refItem {
	st := pf.states[s]
	return refItem{state: s, dist: d, door: st.door, part: st.part}
}

// refHeap is the seed's container/heap priority queue (boxed items, binary
// layout) ordered by (dist, door, partition). The workspace kernel breaks
// ties on state ID instead, which is the same order only through the
// state-numbering invariant (settle), so the oracles check that too.
type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.door != b.door {
		return a.door < b.door
	}
	return a.part < b.part
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
