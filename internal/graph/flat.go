package graph

import (
	"fmt"
	"math"

	"ikrq/internal/model"
)

// This file is the restore half of the graph layer's snapshot seam (the
// records in record.go are the export half): the FromFlat constructors
// adopt the caller's slices directly — when the caller hands views over an
// mmap'd snapshot (see internal/snapshot/mapping), the big distance tables
// are served straight from the page cache and never copied onto the heap.
// They are the only way back from a snapshot.
//
// Validation contract: structural properties that memory safety depends on
// (table lengths, every stored index that is later used to address a slice)
// are checked unconditionally. Per-element value scans over the bulk float
// tables (non-negative, non-NaN, zero diagonal) run only when trusted is
// false — they would touch every page of an otherwise lazily-faulted
// mapping, and a bad value can only skew a result, never fault. Mapped
// loads pass trusted=true and keep cold start O(pages actually touched);
// every other load passes trusted=false and gets the full value checks.

// PathFinderFromFlat restores a PathFinder from columnar state and arc
// tables: states holds (door, part) int32 pairs interleaved, arcTo/arcW the
// arc targets and weights grouped by source state with per-state counts.
// The adjacency lists are always materialized on the heap (the in-memory
// arc layout is padded and cannot alias disk), so it validates everything
// in both trust modes, arc weights included.
func PathFinderFromFlat(s *model.Space, states []int32, arcCounts []int32, arcTo []int32, arcW []float64) (*PathFinder, error) {
	if len(states)%2 != 0 {
		return nil, fmt.Errorf("graph: flat state table has odd length %d", len(states))
	}
	n := len(states) / 2
	if len(arcCounts) != n {
		return nil, fmt.Errorf("graph: flat pathfinder has %d states but %d arc counts", n, len(arcCounts))
	}
	if len(arcTo) != len(arcW) {
		return nil, fmt.Errorf("graph: flat arc tables disagree: %d targets, %d weights", len(arcTo), len(arcW))
	}
	pf := &PathFinder{
		s:          s,
		states:     make([]state, n),
		doorStates: make([][]StateID, s.NumDoors()),
		adj:        make([][]arc, n),
	}
	// Two passes over the state table so every per-door state list is carved
	// from one exactly-sized backing array — incremental appends here used to
	// show up on the snapshot cold-start profile.
	deg := make([]int32, s.NumDoors())
	for i := 0; i < n; i++ {
		d, p := states[2*i], states[2*i+1]
		if int(d) < 0 || int(d) >= s.NumDoors() {
			return nil, fmt.Errorf("graph: state %d references missing door %d", i, d)
		}
		if int(p) < 0 || int(p) >= s.NumPartitions() {
			return nil, fmt.Errorf("graph: state %d references missing partition %d", i, p)
		}
		pf.states[i] = state{door: model.DoorID(d), part: model.PartitionID(p)}
		deg[d]++
	}
	stBack := make([]StateID, 0, n)
	for d := range pf.doorStates {
		off := len(stBack)
		stBack = stBack[:off+int(deg[d])]
		pf.doorStates[d] = stBack[off:off:len(stBack)]
	}
	for i := 0; i < n; i++ {
		d := states[2*i]
		pf.doorStates[d] = append(pf.doorStates[d], StateID(i))
	}
	// One backing allocation for every adjacency list.
	arcs := make([]arc, len(arcTo))
	off := 0
	for i, cnt := range arcCounts {
		c := int(cnt)
		if c < 0 || off+c > len(arcTo) {
			return nil, fmt.Errorf("graph: flat pathfinder arc counts overflow the arc table")
		}
		for j := 0; j < c; j++ {
			to, w := arcTo[off+j], arcW[off+j]
			if int(to) < 0 || int(to) >= n {
				return nil, fmt.Errorf("graph: arc from state %d targets missing state %d", i, to)
			}
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: arc from state %d has invalid weight %v", i, w)
			}
			arcs[off+j] = arc{to: StateID(to), w: w}
		}
		pf.adj[i] = arcs[off : off+c : off+c]
		off += c
	}
	if off != len(arcTo) {
		return nil, fmt.Errorf("graph: flat pathfinder has %d unclaimed arcs", len(arcTo)-off)
	}
	return pf, nil
}

// SkeletonFromFlat restores a Skeleton adopting dist as its δs2s closure
// without copying. The door list is always validated (it is small and every
// entry is used as an index); the n² cell scan runs only when !trusted.
func SkeletonFromFlat(s *model.Space, doors []int32, dist []float64, trusted bool) (*Skeleton, error) {
	n := len(doors)
	if len(dist) != n*n {
		return nil, fmt.Errorf("graph: flat skeleton has %d doors but %d distances (want %d)", n, len(dist), n*n)
	}
	sk := &Skeleton{s: s, idx: make(map[model.DoorID]int, n)}
	sk.doors = make([]model.DoorID, 0, n)
	for i, d := range doors {
		if int(d) < 0 || int(d) >= s.NumDoors() {
			return nil, fmt.Errorf("graph: flat skeleton references missing door %d", d)
		}
		id := model.DoorID(d)
		if !s.Door(id).Stair {
			return nil, fmt.Errorf("graph: flat skeleton lists non-stair door %d", d)
		}
		if _, dup := sk.idx[id]; dup {
			return nil, fmt.Errorf("graph: flat skeleton lists door %d twice", d)
		}
		sk.idx[id] = i
		sk.doors = append(sk.doors, id)
	}
	if !trusted {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := dist[i*n+j]; v < 0 || math.IsNaN(v) || (i == j && v != 0) {
					return nil, fmt.Errorf("graph: flat skeleton δs2s[%d][%d] is invalid: %v", i, j, v)
				}
			}
		}
	}
	sk.d = dist
	return sk, nil
}

// MatrixFromFlat restores the dense KoE* Matrix adopting the dist and prev
// tables without copying. The parent-pointer table is range-checked even
// when trusted — path recovery chases those indices, so an out-of-range
// entry would fault, not just mis-score (and the dense backend only exists
// on small venues, keeping the scan cheap). The dist value scan runs only
// when !trusted.
func MatrixFromFlat(pf *PathFinder, n int, dist []float64, prev []StateID, trusted bool) (*Matrix, error) {
	if n != pf.NumStates() {
		return nil, fmt.Errorf("graph: flat matrix is %d×%d but the state graph has %d states", n, n, pf.NumStates())
	}
	if len(dist) != n*n || len(prev) != n*n {
		return nil, fmt.Errorf("graph: flat matrix tables have %d/%d entries (want %d)", len(dist), len(prev), n*n)
	}
	for i, pv := range prev {
		if pv != NoState && (int(pv) < 0 || int(pv) >= n) {
			return nil, fmt.Errorf("graph: flat matrix prev[%d] references missing state %d", i, pv)
		}
	}
	if !trusted {
		for i, d := range dist {
			if d < 0 || math.IsNaN(d) {
				return nil, fmt.Errorf("graph: flat matrix dist[%d] is invalid: %v", i, d)
			}
		}
	}
	return &Matrix{pf: pf, n: n, dist: dist, prev: prev}, nil
}

// OracleFromFlat restores the hierarchical Oracle adopting the three
// distance tables without copying. The hub enumeration is recomputed from
// the finder and compared exactly (O(states) — the derived floorOf/stateOff
// tables come out of the same sweep), so a record from a different space is
// rejected in either mode; the per-element value scans over
// toHub/fromHub/hubDist run only when !trusted (their values feed arithmetic
// bounds, never indexing).
func OracleFromFlat(pf *PathFinder, hubs []StateID, hubOff []int32, toHub, fromHub, hubDist []float64, trusted bool) (*Oracle, error) {
	o := &Oracle{pf: pf, floors: pf.s.Floors()}
	n := pf.NumStates()
	o.floorOf = make([]int32, n)
	for i := 0; i < n; i++ {
		o.floorOf[i] = int32(pf.s.Door(pf.states[i].door).Pos.Floor)
	}
	o.hubOff = make([]int32, o.floors+1)
	for f := 0; f < o.floors; f++ {
		o.hubOff[f] = int32(len(o.hubs))
		for _, d := range pf.s.StairDoorsOnFloor(f) {
			o.hubs = append(o.hubs, pf.doorStates[d]...)
		}
	}
	o.hubOff[o.floors] = int32(len(o.hubs))
	if len(hubs) != len(o.hubs) || len(hubOff) != len(o.hubOff) {
		return nil, fmt.Errorf("graph: flat oracle has %d hubs over %d floors, the space has %d over %d",
			len(hubs), len(hubOff)-1, len(o.hubs), o.floors)
	}
	for i, hs := range hubs {
		if hs != o.hubs[i] {
			return nil, fmt.Errorf("graph: flat oracle hub %d is state %d, the space enumerates %d", i, hs, o.hubs[i])
		}
	}
	for i, off := range hubOff {
		if off != o.hubOff[i] {
			return nil, fmt.Errorf("graph: flat oracle floor offset %d is %d, the space has %d", i, off, o.hubOff[i])
		}
	}
	o.stateOff = make([]int32, n+1)
	off := int32(0)
	for i := 0; i < n; i++ {
		o.stateOff[i] = off
		f := o.floorOf[i]
		off += o.hubOff[f+1] - o.hubOff[f]
	}
	o.stateOff[n] = off
	h := len(o.hubs)
	if len(toHub) != int(off) || len(fromHub) != int(off) || len(hubDist) != h*h {
		return nil, fmt.Errorf("graph: flat oracle tables have %d/%d/%d entries (want %d/%d/%d)",
			len(toHub), len(fromHub), len(hubDist), off, off, h*h)
	}
	if !trusted {
		for i, d := range toHub {
			if d < 0 || math.IsNaN(d) {
				return nil, fmt.Errorf("graph: flat oracle toHub[%d] is invalid: %v", i, d)
			}
		}
		for i, d := range fromHub {
			if d < 0 || math.IsNaN(d) {
				return nil, fmt.Errorf("graph: flat oracle fromHub[%d] is invalid: %v", i, d)
			}
		}
		for i, d := range hubDist {
			if d < 0 || math.IsNaN(d) || (i/h == i%h && d != 0) {
				return nil, fmt.Errorf("graph: flat oracle hubDist[%d] is invalid: %v", i, d)
			}
		}
	}
	o.toHub = toHub
	o.fromHub = fromHub
	o.hubDist = hubDist
	return o, nil
}
