package graph

import (
	"math"
	"math/bits"
)

// Workspace is the reusable scratch of the shortest-path kernel: the
// per-state dist/parent/seedOf tables, the monotone radix queue and the
// target-set bookkeeping of one Dijkstra run. A workspace is sized on first
// use and never shrinks, so a long-lived owner (a pooled scratch bundle,
// a hub-sweep worker) pays the O(states) allocations once and every
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

	// qb[b] is bucket b of the monotone radix queue (push, pop): a
	// contiguous slice of (key, state) entries, non-empty exactly when bit b
	// of qMask is set. qLast is the key of the last popped distance. The
	// buckets keep their capacity across runs.
	qb    [64][]qEntry
	qMask uint64
	qLast uint64

	// tree backs the Tree returned by ShortestTreeWS; ltree backs the
	// LazyTree returned by LazyTreeWS; tbuf, legs and hops are reusable
	// target, leg and path-reconstruction buffers for the point and lazy
	// entry points.
	tree  Tree
	ltree LazyTree
	tbuf  []StateID
	legs  []float64
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
	for m := ws.qMask; m != 0; m &= m - 1 { // a paused run leaves entries
		b := bits.TrailingZeros64(m)
		ws.qb[b] = ws.qb[b][:0]
	}
	ws.qMask, ws.qLast = 0, 0
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

// qEntry is one queue entry: a state at a tentative distance, keyed by
// the distance's bit pattern.
type qEntry struct {
	key   uint64
	state StateID
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
	key := math.Float64bits(d)
	b := bits.Len64(key ^ ws.qLast)
	ws.qb[b] = append(ws.qb[b], qEntry{key: key, state: s})
	ws.qMask |= 1 << b
}

// pop removes and returns the least entry by (dist, state). The queue must
// be non-empty (qMask != 0).
func (ws *Workspace) pop() (StateID, float64) {
	if ws.qMask&1 == 0 {
		ws.refill()
	}
	b0 := ws.qb[0]
	best := 0
	for i := 1; i < len(b0); i++ {
		if b0[i].state < b0[best].state {
			best = i
		}
	}
	s, last := b0[best].state, len(b0)-1
	b0[best] = b0[last]
	ws.qb[0] = b0[:last]
	if last == 0 {
		ws.qMask &^= 1
	}
	return s, math.Float64frombits(ws.qLast)
}

// refill empties the lowest non-empty bucket around its least key, which
// becomes qLast: the entries at that key move to bucket 0 and every other
// one to a bucket below the one it left (they all agree with the new qLast
// above the bit where the old bucket index was decided). Entries in higher
// buckets keep their index, because the new qLast agrees with the old one
// on every bit they were placed by.
func (ws *Workspace) refill() {
	b := bits.TrailingZeros64(ws.qMask)
	src := ws.qb[b]
	m := src[0].key
	for _, e := range src[1:] {
		m = min(m, e.key)
	}
	ws.qLast = m
	for _, e := range src {
		nb := bits.Len64(e.key ^ m) // < b: appends never touch src
		ws.qb[nb] = append(ws.qb[nb], e)
		ws.qMask |= 1 << nb
	}
	ws.qb[b] = src[:0]
	ws.qMask &^= 1 << b
}
