package graph

import "math"

// Workspace is the reusable scratch of the shortest-path kernel: the
// per-state dist/parent/seedOf tables, the flat 4-ary priority queue and the
// target-set bookkeeping of one Dijkstra run. A workspace is sized on first
// use and never shrinks, so a long-lived owner (a pooled scratch bundle,
// a matrix-build worker) pays the O(states) allocations once and every
// subsequent run is allocation-free.
//
// Resets are O(1): instead of refilling dist with +Inf and parent with
// NoState before every run, each state carries an epoch stamp and a slot is
// valid only when its stamp equals the workspace's current epoch. begin()
// bumps the epoch, instantly invalidating every slot of the previous run;
// the stamp arrays are physically cleared only on the (once per 2³² runs)
// epoch wraparound.
//
// A workspace is single-threaded state: concurrent runs need one workspace
// each. Trees and paths returned by the ...WS entry points borrow the
// workspace's storage and are valid only until its next run.
type Workspace struct {
	dist   []float64
	parent []StateID
	seedOf []int32

	// mark[s] == epoch ⇔ dist/parent/seedOf[s] were written this run.
	mark []uint32
	// settled[s] == epoch ⇔ s popped at its final distance this run.
	settled []uint32
	// target[s] == epoch ⇔ s was requested as a target this run.
	target []uint32
	epoch  uint32

	// heap is the flat 4-ary implicit priority queue. Items are plain
	// structs in a contiguous slice — no container/heap interface boxing,
	// no per-push allocation.
	heap []heapItem

	// tree backs the Tree returned by ShortestTreeWS; ltree backs the
	// LazyTree returned by LazyTreeWS; tbuf and hops are reusable
	// target-list and path-reconstruction buffers for the point, state and
	// lazy entry points.
	tree  Tree
	ltree LazyTree
	tbuf  []StateID
	hops  []Hop
}

// NewWorkspace returns an empty workspace; begin() sizes it to the state
// graph on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// begin readies the workspace for a run over n states: size (growing only),
// bump the epoch, reset the heap. O(1) except on growth and epoch wrap.
func (ws *Workspace) begin(n int) {
	if cap(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.parent = make([]StateID, n)
		ws.seedOf = make([]int32, n)
		ws.mark = make([]uint32, n)
		ws.settled = make([]uint32, n)
		ws.target = make([]uint32, n)
	} else {
		ws.dist = ws.dist[:n]
		ws.parent = ws.parent[:n]
		ws.seedOf = ws.seedOf[:n]
		ws.mark = ws.mark[:n]
		ws.settled = ws.settled[:n]
		ws.target = ws.target[:n]
	}
	ws.epoch++
	if ws.epoch == 0 { // wraparound: stale stamps could collide, clear them
		clear(ws.mark[:cap(ws.mark)])
		clear(ws.settled[:cap(ws.settled)])
		clear(ws.target[:cap(ws.target)])
		ws.epoch = 1
	}
	ws.heap = ws.heap[:0]
}

// distAt returns the run's distance to s, +Inf when s was not reached.
func (ws *Workspace) distAt(s StateID) float64 {
	if ws.mark[s] != ws.epoch {
		return math.Inf(1)
	}
	return ws.dist[s]
}

// set writes a state's relaxation result under the current epoch.
func (ws *Workspace) set(s StateID, d float64, parent StateID, seed int32) {
	ws.mark[s] = ws.epoch
	ws.dist[s] = d
	ws.parent[s] = parent
	ws.seedOf[s] = seed
}

// heapLess orders heap items by (dist, door, partition) — the deterministic
// tie-break of the kernel. Two live items never compare equal: a state is
// re-pushed only with a strictly smaller distance, and distinct states
// differ in (door, partition). With a strict total order the pop sequence is
// the sorted order, independent of heap arity, which is what keeps the flat
// 4-ary heap byte-identical to the seed kernel's container/heap binary heap.
func heapLess(a, b heapItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.door != b.door {
		return a.door < b.door
	}
	return a.part < b.part
}

// heapPush inserts an item, sifting up through 4-ary parents.
func (ws *Workspace) heapPush(it heapItem) {
	h := append(ws.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !heapLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	ws.heap = h
}

// heapPop removes and returns the minimum item, sifting the displaced tail
// down over groups of 4 children. The 4-ary layout halves the tree depth of
// a binary heap and keeps each node's children in one cache line.
func (ws *Workspace) heapPop() heapItem {
	h := ws.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if heapLess(h[j], h[best]) {
				best = j
			}
		}
		if !heapLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	ws.heap = h
	return top
}
