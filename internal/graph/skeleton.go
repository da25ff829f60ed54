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
	s     *model.Space
	doors []model.DoorID       // all staircase doors
	idx   map[model.DoorID]int // door -> matrix index
	// d is δs2s, Floyd–Warshall closed, flat row-major (stride len(doors)):
	// one allocation, and the LowerBound hot loop walks a contiguous row
	// instead of chasing per-row slice headers.
	d []float64
}

// at returns δs2s by matrix index.
func (sk *Skeleton) at(i, j int) float64 { return sk.d[i*len(sk.doors)+j] }

// Bytes estimates the resident size of the skeleton tables — the δs2s
// closure, the door list and the door-index map — for the serving layer's
// per-venue memory accounting.
func (sk *Skeleton) Bytes() int64 {
	n := int64(len(sk.doors))
	return n*n*8 + n*4 + n*48 // closure + doors + amortized map entries
}

// NewSkeleton computes δs2s for the space's staircase doors with
// Floyd–Warshall. The staircase-door count is small (staircases × floors),
// so the cubic closure is cheap and done once per space.
func NewSkeleton(s *model.Space) *Skeleton {
	sk := &Skeleton{s: s, idx: make(map[model.DoorID]int)}
	for f := 0; f < s.Floors(); f++ {
		for _, d := range s.StairDoorsOnFloor(f) {
			sk.idx[d] = len(sk.doors)
			sk.doors = append(sk.doors, d)
		}
	}
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
			a := s.Door(sk.doors[i]).Pos
			b := s.Door(sk.doors[j]).Pos
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
	for _, sw := range s.Stairways() {
		i, iok := sk.idx[sw.From]
		j, jok := sk.idx[sw.To]
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

// S2S returns δs2s between two staircase doors, +Inf if either door is not
// part of the skeleton or they are not connected.
func (sk *Skeleton) S2S(a, b model.DoorID) float64 {
	i, iok := sk.idx[a]
	j, jok := sk.idx[b]
	if !iok || !jok {
		return math.Inf(1)
	}
	return sk.at(i, j)
}

// LowerBound returns |a,b|L.
func (sk *Skeleton) LowerBound(a, b geom.Point) float64 {
	if a.Floor == b.Floor {
		return a.PlanarDist(b)
	}
	best := math.Inf(1)
	for _, sdA := range sk.s.StairDoorsOnFloor(a.Floor) {
		da := a.PlanarDist(sk.s.Door(sdA).Pos)
		ia := sk.idx[sdA]
		for _, sdB := range sk.s.StairDoorsOnFloor(b.Floor) {
			ib := sk.idx[sdB]
			v := da + sk.at(ia, ib) + b.PlanarDist(sk.s.Door(sdB).Pos)
			if v < best {
				best = v
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
// (resp. start) inside v, dropping the crossing term.
func (sk *Skeleton) PartitionBound(ps geom.Point, v model.PartitionID, pt geom.Point) float64 {
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

// ViaBound returns δLB(x, v, pt) used by KoE's distance-constraint check
// (Algorithm 6 line 11): the lower bound of continuing from item position x
// through partition v and then to pt.
func (sk *Skeleton) ViaBound(x geom.Point, v model.PartitionID, pt geom.Point) float64 {
	return sk.PartitionBound(x, v, pt)
}
