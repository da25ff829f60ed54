package graph

import (
	"math"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// This file keeps two skeleton bounds as test-only references. LowerBound
// as it was before its stair-door work was hoisted: it walks the space's
// staircase doors per floor, looks each door's matrix index up in a map,
// and recomputes |sdB, b| inside the double loop. PartitionBound as it was
// before it took its host partitions: it point-locates ps and pt itself.
// The bound oracles require the current code to return the same float64,
// bit for bit.

// refSkeleton pairs a skeleton with the door → matrix index map the
// reference bound reads.
type refSkeleton struct {
	sk  *Skeleton
	idx map[model.DoorID]int
}

func newRefSkeleton(sk *Skeleton) *refSkeleton {
	r := &refSkeleton{sk: sk, idx: make(map[model.DoorID]int, len(sk.doors))}
	for i, d := range sk.doors {
		r.idx[d] = i
	}
	return r
}

// lowerBound is the reference |a,b|L.
func (r *refSkeleton) lowerBound(a, b geom.Point) float64 {
	if a.Floor == b.Floor {
		return a.PlanarDist(b)
	}
	sk, n := r.sk, len(r.sk.doors)
	best := math.Inf(1)
	for _, sdA := range sk.s.StairDoorsOnFloor(a.Floor) {
		da := a.PlanarDist(sk.s.Door(sdA).Pos)
		ia := r.idx[sdA]
		for _, sdB := range sk.s.StairDoorsOnFloor(b.Floor) {
			ib := r.idx[sdB]
			v := da + sk.d[ia*n+ib] + b.PlanarDist(sk.s.Door(sdB).Pos)
			if v < best {
				best = v
			}
		}
	}
	return best
}

// partitionBound is the reference δ(ps, v, pt), point-locating both
// endpoints on every call.
func (r *refSkeleton) partitionBound(ps geom.Point, v model.PartitionID, pt geom.Point) float64 {
	sk := r.sk
	s := sk.s
	part := s.Partition(v)
	best := math.Inf(1)
	if s.HostPartition(pt) == v {
		for _, di := range part.EnterDoors() {
			b := sk.LowerBound(ps, s.Door(di).Pos) + s.Door(di).Pos.Dist(pt)
			if b < best {
				best = b
			}
		}
		return best
	}
	if s.HostPartition(ps) == v {
		for _, dj := range part.LeaveDoors() {
			b := ps.Dist(s.Door(dj).Pos) + sk.LowerBound(s.Door(dj).Pos, pt)
			if b < best {
				best = b
			}
		}
		return best
	}
	for _, di := range part.EnterDoors() {
		head := sk.LowerBound(ps, s.Door(di).Pos)
		for _, dj := range part.LeaveDoors() {
			cross := s.D2DDistVia(di, dj, v)
			if math.IsInf(cross, 1) {
				continue
			}
			b := head + cross + sk.LowerBound(s.Door(dj).Pos, pt)
			if b < best {
				best = b
			}
		}
	}
	return best
}

// s2s returns δs2s between two staircase doors, +Inf if either door is not
// part of the skeleton or they are not connected.
func s2s(sk *Skeleton, a, b model.DoorID) float64 {
	i, j := -1, -1
	for k, d := range sk.doors {
		if d == a {
			i = k
		}
		if d == b {
			j = k
		}
	}
	if i < 0 || j < 0 {
		return math.Inf(1)
	}
	return sk.d[i*len(sk.doors)+j]
}
