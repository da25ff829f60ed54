package graph

import (
	"math"
	"math/bits"
)

// Workspace is the reusable scratch of the shortest-path kernel: the
// per-state dist/parent/seedOf tables, the monotone radix queue and the
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

	// q is the node pool of the monotone radix queue (push, pop): bucket
	// b is the list headed by qHead[b] when bit b of qMask is set, nodes
	// link through qNode.next, and popped nodes are reused from the qFree
	// chain. qLast is the bit pattern of the last popped distance.
	q     []qNode
	qHead [64]int32
	qMask uint64
	qFree int32
	qLast uint64

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
// bump the epoch, empty the queue. O(1) except on growth and epoch wrap.
func (ws *Workspace) begin(n int) {
	if cap(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.parent = make([]StateID, n)
		ws.seedOf = make([]int32, n)
		ws.mark = make([]uint32, n)
		ws.settled = make([]uint32, n)
		ws.target = make([]uint32, n)
		// Sized once with the tables: a run's queue rarely holds more
		// entries than there are states, so steady-state runs never grow
		// it.
		ws.q = make([]qNode, 0, n)
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
	ws.q = ws.q[:0]
	ws.qMask, ws.qFree, ws.qLast = 0, -1, 0
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

// qNode is one queue entry: a state at a tentative distance, linked into
// its bucket's list (next is a q index, -1 ending the list).
type qNode struct {
	state StateID
	next  int32
	dist  float64
}

// The kernel queue is a monotone radix heap over the bit patterns of the
// distances. It is exact for Dijkstra: no run pushes a distance below the
// last one popped, because arc weights and delays are non-negative (the
// state graph's constructors and Conditions.Validate reject anything else)
// and start normalises a −0 seed cost to +0. For non-negative floats
// math.Float64bits orders like the value, so an entry lives in bucket
// bits.Len64(key ^ qLast) — the highest bit where it differs from the last
// pop, 0 through 63, since the sign bit is always clear — and the lowest
// non-empty bucket holds the minimum. Bucket 0 holds exactly the entries
// at the last popped distance, and pop takes the least state among them:
// the pop order is (dist, state), a strict total order over live entries
// (a state is re-pushed only at a strictly smaller distance), so it does
// not depend on insertion order, bucket layout or where a run pauses.

// push enters state s at tentative distance d, which must not be below
// the last popped distance.
func (ws *Workspace) push(s StateID, d float64) {
	b := bits.Len64(math.Float64bits(d) ^ ws.qLast)
	i := ws.qFree
	if i >= 0 {
		ws.qFree = ws.q[i].next
	} else {
		i = int32(len(ws.q))
		ws.q = append(ws.q, qNode{})
	}
	next := int32(-1)
	if ws.qMask&(1<<b) != 0 {
		next = ws.qHead[b]
	}
	ws.q[i] = qNode{state: s, next: next, dist: d}
	ws.qHead[b] = i
	ws.qMask |= 1 << b
}

// pop removes and returns the least entry by (dist, state). The queue must
// be non-empty (qMask != 0).
func (ws *Workspace) pop() (StateID, float64) {
	if ws.qMask&1 == 0 {
		ws.refill()
	}
	head := ws.qHead[0]
	best, bestPrev := head, int32(-1)
	for prev, i := head, ws.q[head].next; i >= 0; prev, i = i, ws.q[i].next {
		if ws.q[i].state < ws.q[best].state {
			best, bestPrev = i, prev
		}
	}
	n := &ws.q[best]
	if bestPrev >= 0 {
		ws.q[bestPrev].next = n.next
	} else if ws.qHead[0] = n.next; n.next < 0 {
		ws.qMask &^= 1
	}
	s, d := n.state, n.dist
	n.next = ws.qFree
	ws.qFree = best
	return s, d
}

// refill empties the lowest non-empty bucket around its least key, which
// becomes qLast: the entries at that key move to bucket 0 and every other
// one to a bucket below the one it left (they all agree with the new qLast
// above the bit where the old bucket index was decided). Entries in higher
// buckets keep their index, because the new qLast agrees with the old one
// on every bit they were placed by.
func (ws *Workspace) refill() {
	b := bits.TrailingZeros64(ws.qMask)
	head := ws.qHead[b]
	ws.qMask &^= 1 << b
	m := uint64(math.MaxUint64)
	for i := head; i >= 0; i = ws.q[i].next {
		m = min(m, math.Float64bits(ws.q[i].dist))
	}
	ws.qLast = m
	for i := head; i >= 0; {
		n := &ws.q[i]
		next := n.next
		nb := bits.Len64(math.Float64bits(n.dist) ^ m)
		if ws.qMask&(1<<nb) != 0 {
			n.next = ws.qHead[nb]
		} else {
			n.next = -1
		}
		ws.qHead[nb] = i
		ws.qMask |= 1 << nb
		i = next
	}
}
