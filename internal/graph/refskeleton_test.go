package graph

import (
	"math"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// This file keeps Skeleton.LowerBound as it was before its stair-door work
// was hoisted, as a test-only reference: it walks the space's staircase
// doors per floor, looks each door's matrix index up in a map, and
// recomputes |sdB, b| inside the double loop. The bound oracles require the
// hoisted loop to return the same float64, bit for bit.

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
