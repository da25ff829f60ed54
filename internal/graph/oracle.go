package graph

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// DistanceSource is the KoE* distance backend seam: the static structure a
// search engine consults for admissible lower bounds between states, for
// static shortest paths (valid under an overlay exactly when no door on
// them is blocked or delayed — the degrade-to-bound contract of
// Costs.AllowsStatic), and for memory accounting. The hierarchical Oracle
// below is the one implementation the engine builds; the search tests
// inject an exact dense table through the same seam as their reference.
type DistanceSource interface {
	// Dist returns an admissible lower bound of the static shortest
	// distance from a to b; Exact-reporting sources return the exact value
	// where claimed.
	Dist(a, b StateID) float64
	// AppendStaticPathIfAllowed appends the static shortest path from a to
	// b onto dst iff no door on it is blocked or delayed under costs,
	// returning the static distance. ws supplies the kernel scratch the
	// path is recovered in. On ok == false the slice may carry a partial
	// suffix past dst's original length (callers reusing a buffer re-slice
	// it anyway).
	AppendStaticPathIfAllowed(ws *Workspace, dst []Hop, a, b StateID, costs Costs) ([]Hop, float64, bool)
	// Finder returns the PathFinder the backend was computed over.
	Finder() *PathFinder
	// Bytes estimates resident table memory.
	Bytes() int64
	// Kind names the backend ("oracle") for observability.
	Kind() string
}

// Oracle is the hierarchical distance oracle, the engine's KoE* backend:
// near-linear tables where an all-pairs matrix would hold Θ(states²)
// distances. It exploits the floor structure the Skeleton already encodes:
// every cross-floor walk must leave its start floor through a stairway arc,
// and stairway arcs depart from and arrive at states of staircase doors —
// the oracle's hubs.
//
// Stored tables, all exact static distances (zero Costs):
//
//   - toHub:   for every state a, δ(a → e) for each hub e on a's floor
//   - fromHub: for every state b, δ(h → b) for each hub h on b's floor
//   - hubDist: the full |H|×|H| hub-to-hub closure
//
// Dist(a, b) for cross-floor pairs minimizes toHub[a][e] + hubDist[e][h] +
// fromHub[h][b] over hub pairs; because any a→b walk can be split at its
// first departure hub e* on a's floor and its last arrival hub h* on b's
// floor, the minimum is the exact distance (each term of the e*, h* split
// is itself optimal, and every other pair is ≥ by the triangle inequality).
// Same-floor pairs take the maximum of the planar Euclidean bound and the
// hub-split (landmark) lower bounds derived from the same per-floor labels —
// routing *through* a hub is not admissible there, since the optimal
// same-floor walk may avoid staircase doors entirely, but label differences
// are (see DistExact and DESIGN.md §12). The oracle stores no paths: a
// static path is a paused kernel run (AppendStaticPathIfAllowed).
//
// Memory is Θ(states·hubsPerFloor + |H|²): for a venue growing by adding
// floors, hubsPerFloor is constant and |H| grows linearly, so the oracle
// stays near-linear where an all-pairs matrix grows quadratically.
type Oracle struct {
	pf     *PathFinder
	floors int

	floorOf  []int32 // per state: floor of the state's door
	stateOff []int32 // per state: offset of its toHub/fromHub row; len states+1

	hubs   []StateID // hub states grouped by floor (deterministic order)
	hubOff []int32   // len floors+1: hubs[hubOff[f]:hubOff[f+1]] live on floor f

	toHub   []float64 // row for state a: δ(a → e), e over a's floor hubs
	fromHub []float64 // row for state b: δ(h → b), h over b's floor hubs
	hubDist []float64 // |H|² row-major by global hub ordinal
}

// NewOracle builds the oracle with two full-graph Dijkstras per hub (one
// forward, one backward over a locally built reverse adjacency), fanned out
// over GOMAXPROCS workers. Distances are unique per (source, target)
// regardless of tie-breaking, so the build is deterministic under any
// scheduling (asserted by the oracle tests).
func NewOracle(pf *PathFinder) *Oracle {
	return newOracleWorkers(pf, runtime.GOMAXPROCS(0))
}

func newOracleWorkers(pf *PathFinder, workers int) *Oracle {
	o := &Oracle{pf: pf, floors: pf.s.Floors()}
	n := pf.NumStates()

	o.floorOf = make([]int32, n)
	for i := 0; i < n; i++ {
		o.floorOf[i] = int32(pf.s.Door(pf.states[i].door).Pos.Floor)
	}

	// Hubs: every state of every staircase door, grouped by floor in the
	// space's deterministic door order.
	o.hubOff = make([]int32, o.floors+1)
	for f := 0; f < o.floors; f++ {
		o.hubOff[f] = int32(len(o.hubs))
		for _, d := range pf.s.StairDoorsOnFloor(f) {
			o.hubs = append(o.hubs, pf.doorStates[d]...)
		}
	}
	o.hubOff[o.floors] = int32(len(o.hubs))
	h := len(o.hubs)

	// Per-state row offsets: each state's toHub/fromHub row spans its
	// floor's hub count.
	o.stateOff = make([]int32, n+1)
	off := int32(0)
	for i := 0; i < n; i++ {
		o.stateOff[i] = off
		f := o.floorOf[i]
		off += o.hubOff[f+1] - o.hubOff[f]
	}
	o.stateOff[n] = off

	o.toHub = make([]float64, off)
	o.fromHub = make([]float64, off)
	o.hubDist = make([]float64, h*h)
	for i := range o.toHub {
		o.toHub[i] = math.Inf(1)
		o.fromHub[i] = math.Inf(1)
	}
	for i := range o.hubDist {
		o.hubDist[i] = math.Inf(1)
	}
	if h == 0 {
		return o
	}

	// Reverse adjacency for the backward (into-hub) runs: arc u→v(w)
	// becomes v→u(w). Zero-cost static runs have no arrival-door delay, so
	// reversed weights need no adjustment.
	radj := make([][]arc, n)
	counts := make([]int32, n)
	for _, as := range pf.adj {
		for _, a := range as {
			counts[a.to]++
		}
	}
	for i := range radj {
		radj[i] = make([]arc, 0, counts[i])
	}
	for u, as := range pf.adj {
		for _, a := range as {
			radj[a.to] = append(radj[a.to], arc{to: StateID(u), w: a.w})
		}
	}

	// Per-floor state lists so each hub's runs only write its own floor's
	// rows.
	floorStates := make([][]StateID, o.floors)
	for i := 0; i < n; i++ {
		f := o.floorOf[i]
		floorStates[f] = append(floorStates[f], StateID(i))
	}

	// buildHub runs both directions of hub k's sweep on the kernel. Only
	// the distance tables are consumed, so tie-breaking cannot affect the
	// result.
	buildHub := func(ws *Workspace, k int) {
		hub := o.hubs[k]
		f := o.floorOf[hub]
		local := int32(k) - o.hubOff[f]
		seed := [1]Seed{{State: hub}}

		// Forward: δ(hub → ·) fills hubDist row k and the fromHub column
		// for hub's own floor.
		pf.dijkstra(ws, seed[:], Costs{}, nil)
		row := o.hubDist[k*h : (k+1)*h]
		for j, hs := range o.hubs {
			row[j] = ws.distAt(hs)
		}
		for _, b := range floorStates[f] {
			o.fromHub[o.stateOff[b]+local] = ws.distAt(b)
		}

		// Backward: δ(· → hub) via the reverse graph fills the toHub
		// column for hub's own floor.
		pf.start(ws, seed[:])
		pf.settle(ws, radj, Costs{}, nil, nil, NoStop)
		for _, a := range floorStates[f] {
			o.toHub[o.stateOff[a]+local] = ws.distAt(a)
		}
	}

	if workers > h {
		workers = h
	}
	if workers <= 1 {
		ws := NewWorkspace()
		for k := 0; k < h; k++ {
			buildHub(ws, k)
		}
		return o
	}
	var nextHub atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace()
			for {
				k := int(nextHub.Add(1)) - 1
				if k >= h {
					return
				}
				buildHub(ws, k)
			}
		}()
	}
	wg.Wait()
	return o
}

// Dist returns an admissible lower bound of the static shortest distance:
// exact for cross-floor pairs (see the type comment for the argument), and
// for distinct same-floor states the maximum of the planar Euclidean bound
// and the per-hub landmark bounds. DistExact reports which case applied.
func (o *Oracle) Dist(a, b StateID) float64 {
	d, _ := o.DistExact(a, b)
	return d
}

// DistExact returns Dist and its exactness in one lookup.
func (o *Oracle) DistExact(a, b StateID) (float64, bool) {
	if a == b {
		return 0, true
	}
	fa, fb := o.floorOf[a], o.floorOf[b]
	if fa == fb {
		pa := o.pf.s.Door(o.pf.states[a].door).Pos
		pb := o.pf.s.Door(o.pf.states[b].door).Pos
		lb := pa.PlanarDist(pb)
		// Landmark (triangle-inequality) lower bounds from the resident
		// per-floor hub labels, both label directions per hub e:
		//
		//	δ(a→e) ≤ δ(a→b) + δ(b→e)  ⇒  δ(a→b) ≥ toHub[a][e] − toHub[b][e]
		//	δ(e→b) ≤ δ(e→a) + δ(a→b)  ⇒  δ(a→b) ≥ fromHub[e][b] − fromHub[e][a]
		//
		// Unreachable labels are +Inf; the guards below keep only finite
		// minuends (an Inf−Inf difference is NaN and never beats lb, an
		// Inf−finite difference would be an inadmissible +Inf).
		ra, rb := o.stateOff[a], o.stateOff[b]
		nh := o.hubOff[fa+1] - o.hubOff[fa]
		for e := int32(0); e < nh; e++ {
			ta, tb := o.toHub[ra+e], o.toHub[rb+e]
			if d := ta - tb; d > lb && !math.IsInf(ta, 1) {
				lb = d
			}
			ga, gb := o.fromHub[ra+e], o.fromHub[rb+e]
			if d := gb - ga; d > lb && !math.IsInf(gb, 1) {
				lb = d
			}
		}
		return lb, false
	}
	h := len(o.hubs)
	ea0, ea1 := o.hubOff[fa], o.hubOff[fa+1]
	hb0, hb1 := o.hubOff[fb], o.hubOff[fb+1]
	ra, rb := o.stateOff[a], o.stateOff[b]
	best := math.Inf(1)
	for e := ea0; e < ea1; e++ {
		da := o.toHub[ra+(e-ea0)]
		if math.IsInf(da, 1) {
			continue
		}
		hrow := o.hubDist[int(e)*h : (int(e)+1)*h]
		for j := hb0; j < hb1; j++ {
			db := o.fromHub[rb+(j-hb0)]
			if v := da + hrow[j] + db; v < best {
				best = v
			}
		}
	}
	return best, true
}

// AppendStaticPathIfAllowed implements DistanceSource. The static optimum
// from a is a LazyTree on the caller's workspace, settled only as far as b —
// the same paused kernel run the KoE* searcher caches per stamp tail. The
// kernel's strict tie-break makes it hop-for-hop the parent chain of a's
// full Dijkstra tree.
func (o *Oracle) AppendStaticPathIfAllowed(ws *Workspace, dst []Hop, a, b StateID, costs Costs) ([]Hop, float64, bool) {
	return o.pf.LazyTreeWS(ws, []Seed{{State: a}}, Costs{}).AppendPathIfAllowed(dst, b, costs)
}

// Finder returns the PathFinder the oracle was computed over.
func (o *Oracle) Finder() *PathFinder { return o.pf }

// Bytes estimates the resident size of the oracle tables, which the
// scaling benchmarks set against an all-pairs matrix's 8·states² bytes.
func (o *Oracle) Bytes() int64 {
	return int64(len(o.toHub)+len(o.fromHub)+len(o.hubDist))*8 +
		int64(len(o.hubs)+len(o.floorOf)+len(o.stateOff)+len(o.hubOff))*4
}

// Kind identifies the hierarchical backend on the DistanceSource seam.
func (o *Oracle) Kind() string { return "oracle" }

// NumHubs returns the hub count (states of staircase doors), the |H| of the
// oracle's size analysis.
func (o *Oracle) NumHubs() int { return len(o.hubs) }
