package graph

import (
	"fmt"
	"math"

	"ikrq/internal/model"
)

// This file is the read half of the graph layer's snapshot seam (record.go
// is the write half): the FromFlat constructors take a structure's tables
// back and adopt the caller's slices directly — when the caller hands views
// over an mmap'd snapshot (see internal/snapshot/mapping), the big distance
// tables are served straight from the page cache and never copied onto the
// heap. They are the only way back from a snapshot.
//
// Validation contract: structural properties that memory safety depends on
// (table lengths, every stored index that is later used to address a slice)
// are checked unconditionally. Per-element value scans over the bulk float
// tables (non-negative, non-NaN, zero diagonal) run only when trusted is
// false — they would touch every page of an otherwise lazily-faulted
// mapping, and a bad value can only skew a result, never fault. Mapped
// loads pass trusted=true and keep cold start O(pages actually touched);
// every other load passes trusted=false and gets the full value checks.

// PathFinderFromFlat restores a PathFinder from its tables. The adjacency
// lists are always materialized on the heap (the in-memory arc layout is
// padded and cannot alias disk), so it validates everything in both trust
// modes, arc weights included, and so is the state order: states must be
// strictly increasing in (door, partition), the numbering NewPathFinder
// produces and the kernel's tie-break relies on.
func PathFinderFromFlat(s *model.Space, t PathFinderTables) (*PathFinder, error) {
	states, arcCounts, arcTo, arcW := t.States, t.ArcCounts, t.ArcTo, t.ArcW
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
		if i > 0 {
			if pd, pp := states[2*i-2], states[2*i-1]; d < pd || d == pd && p <= pp {
				return nil, fmt.Errorf("graph: state %d (door %d, partition %d) does not follow (%d, %d) in (door, partition) order", i, d, p, pd, pp)
			}
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

// SkeletonFromFlat restores a Skeleton adopting t.Dist as its δs2s closure
// without copying. t.Doors must be the space's floor-major staircase door
// enumeration exactly (O(stair doors), checked in both trust modes, as
// OracleFromFlat checks its hubs): LowerBound reads each floor's doors as
// one index range, so a list that drops, adds or reorders a door would
// pair distances with the wrong doors. The n² cell scan runs only when
// !trusted.
func SkeletonFromFlat(s *model.Space, t SkeletonTables, trusted bool) (*Skeleton, error) {
	doors, dist := t.Doors, t.Dist
	n := len(doors)
	if len(dist) != n*n {
		return nil, fmt.Errorf("graph: flat skeleton has %d doors but %d distances (want %d)", n, len(dist), n*n)
	}
	sk := newSkeletonTables(s)
	if n != len(sk.doors) {
		return nil, fmt.Errorf("graph: flat skeleton lists %d doors, the space has %d staircase doors", n, len(sk.doors))
	}
	for i, d := range doors {
		if d != sk.doors[i] {
			return nil, fmt.Errorf("graph: flat skeleton door %d is %d, the space enumerates %d", i, d, sk.doors[i])
		}
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

// OracleFromFlat restores the hierarchical Oracle adopting the three
// distance tables without copying. The hub enumeration is recomputed from
// the finder and compared exactly (O(states) — the derived floorOf/stateOff
// tables come out of the same sweep), so tables from a different space are
// rejected in either mode; the per-element value scans over
// ToHub/FromHub/HubDist run only when !trusted (their values feed
// arithmetic bounds, never indexing).
func OracleFromFlat(pf *PathFinder, t OracleTables, trusted bool) (*Oracle, error) {
	hubs, hubOff, toHub, fromHub, hubDist := t.Hubs, t.HubOff, t.ToHub, t.FromHub, t.HubDist
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
