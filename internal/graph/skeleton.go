package graph

import (
	"math"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// Skeleton implements the lower-bound indoor distance |xi,xj|L of the
// paper's Section IV-A (after Xie et al. [22]): the Euclidean distance for
// items on the same floor, and otherwise the cheapest combination
//
//	|xi, sdi|E + δs2s(sdi, sdj) + |sdj, xj|E
//
// over staircase doors sdi on xi's floor and sdj on xj's floor, where δs2s
// is the shortest skeleton distance between staircase doors (Euclidean hops
// on a floor, exact stairway lengths across floors).
//
// The value is a true lower bound of the indoor route distance, which makes
// Pruning Rules 1–4 sound.
type Skeleton struct {
	s *model.Space
	// doors lists the staircase doors floor-major, in the space's
	// StairDoorsOnFloor enumeration: floor f's doors are matrix indices
	// off[f]..off[f+1]. pos holds their positions.
	doors []model.DoorID
	off   []int32
	pos   []geom.Point
	// d is δs2s, Floyd–Warshall closed, flat row-major (stride len(doors)):
	// one allocation, and the LowerBound hot loop walks a contiguous row
	// segment per floor instead of chasing per-row slice headers.
	d []float64
}

// Bytes estimates the resident size of the skeleton tables — the δs2s
// closure, the door list, the door positions and the floor offsets — for
// the serving layer's per-venue memory accounting.
func (sk *Skeleton) Bytes() int64 {
	n := int64(len(sk.doors))
	return n*n*8 + n*4 + n*24 + int64(len(sk.off))*4
}

// newSkeletonTables lays out the space's staircase doors floor-major with
// their floor offsets and positions: the enumeration both NewSkeleton and
// SkeletonFromFlat build on.
func newSkeletonTables(s *model.Space) *Skeleton {
	sk := &Skeleton{s: s, off: make([]int32, s.Floors()+1)}
	for f := 0; f < s.Floors(); f++ {
		sk.off[f] = int32(len(sk.doors))
		sk.doors = append(sk.doors, s.StairDoorsOnFloor(f)...)
	}
	sk.off[s.Floors()] = int32(len(sk.doors))
	sk.pos = make([]geom.Point, len(sk.doors))
	for i, d := range sk.doors {
		sk.pos[i] = s.Door(d).Pos
	}
	return sk
}

// NewSkeleton computes δs2s for the space's staircase doors with
// Floyd–Warshall. The staircase-door count is small (staircases × floors),
// so the cubic closure is cheap and done once per space.
func NewSkeleton(s *model.Space) *Skeleton {
	sk := newSkeletonTables(s)
	n := len(sk.doors)
	sk.d = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sk.d[i*n+j] = math.Inf(1)
			}
		}
	}
	// Same-floor hops are Euclidean (a lower bound of walking between two
	// staircase doors on one floor).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := sk.pos[i], sk.pos[j]
			if a.Floor != b.Floor {
				continue
			}
			w := a.Dist(b)
			if w < sk.d[i*n+j] {
				sk.d[i*n+j] = w
				sk.d[j*n+i] = w
			}
		}
	}
	// Stairway edges carry their exact walking length.
	idx := make(map[model.DoorID]int, n)
	for i, d := range sk.doors {
		idx[d] = i
	}
	for _, sw := range s.Stairways() {
		i, iok := idx[sw.From]
		j, jok := idx[sw.To]
		if !iok || !jok {
			continue
		}
		if sw.Length < sk.d[i*n+j] {
			sk.d[i*n+j] = sw.Length
			sk.d[j*n+i] = sw.Length
		}
	}
	for k := 0; k < n; k++ {
		krow := sk.d[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := sk.d[i*n+k]
			if math.IsInf(dik, 1) {
				continue
			}
			irow := sk.d[i*n : (i+1)*n]
			for j, dkj := range krow {
				if v := dik + dkj; v < irow[j] {
					irow[j] = v
				}
			}
		}
	}
	return sk
}

// floorDoors returns the matrix index range of floor f's staircase doors,
// empty for a floor outside the space.
func (sk *Skeleton) floorDoors(f int) (lo, hi int) {
	if f < 0 || f+1 >= len(sk.off) {
		return 0, 0
	}
	return int(sk.off[f]), int(sk.off[f+1])
}

// lbChunk is how many of b's staircase doors LowerBound handles per pass:
// their planar distances sit in a stack array, so no call allocates, and a
// floor with more staircase doors is taken in chunks.
const lbChunk = 64

// LowerBound returns |a,b|L. Across floors it minimizes
// (|a,sdA| + δs2s(sdA,sdB)) + |sdB,b| over staircase doors sdA on a's floor
// and sdB on b's, summed in that order for every pair, with each planar
// distance computed once per call. Keep the sum's order and math.Hypot
// (geom.PlanarDist): regrouping it, or sqrt(dx*dx+dy*dy), can move a bound
// by an ULP, and rounding up makes it inadmissible.
func (sk *Skeleton) LowerBound(a, b geom.Point) float64 {
	if a.Floor == b.Floor {
		return a.PlanarDist(b)
	}
	a0, a1 := sk.floorDoors(a.Floor)
	b0, b1 := sk.floorDoors(b.Floor)
	n := len(sk.doors)
	best := math.Inf(1)
	var db [lbChunk]float64
	for c0 := b0; c0 < b1; c0 += lbChunk {
		c1 := min(c0+lbChunk, b1)
		tail := db[:c1-c0]
		for j := range tail {
			tail[j] = b.PlanarDist(sk.pos[c0+j])
		}
		for i := a0; i < a1; i++ {
			da := a.PlanarDist(sk.pos[i])
			for j, s2s := range sk.d[i*n+c0 : i*n+c1] {
				if v := da + s2s + tail[j]; v < best {
					best = v
				}
			}
		}
	}
	return best
}

// PartitionBound returns the Pruning Rule 3 lower bound δ(ps, v, pt): the
// cheapest way to go from ps through partition v to pt,
//
//	min over di ∈ P2D⊢(v), dj ∈ P2D⊣(v):
//	  |ps,di|L + δd2d(di,dj) + |dj,pt|L
//
// with the refinement that when v hosts pt (resp. ps) the route may end
// (resp. start) inside v, dropping the crossing term. hostPs and hostPt are
// Space.HostPartition of ps and pt, which every caller's query already
// holds; the bound point-locates neither.
//
// With ps a route item's position instead of the start point, the same
// bound is KoE's δLB(x, v, pt) (Algorithm 6 line 11): continuing from x
// through v and then to pt.
func (sk *Skeleton) PartitionBound(ps geom.Point, hostPs, v model.PartitionID, pt geom.Point, hostPt model.PartitionID) float64 {
	s := sk.s
	part := s.Partition(v)
	best := math.Inf(1)
	if hostPt == v {
		for _, di := range part.EnterDoors() {
			b := sk.LowerBound(ps, s.Door(di).Pos) + s.Door(di).Pos.Dist(pt)
			if b < best {
				best = b
			}
		}
		return best
	}
	if hostPs == v {
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
