// Package graph provides the distance infrastructure of the IKRQ search:
//
//   - PathFinder: shortest "regular" routes over the door connectivity
//     graph under a query-time cost model (Costs: blocked doors plus
//     additive door delays). The graph's nodes are (door,
//     entered-partition) states, mirroring the paper's stamp semantics: a
//     route that reaches door d has committed to one of the partitions
//     enterable through d, and its next hop must leave that partition. This
//     makes every path the finder returns executable by the search
//     algorithms, including the (d,d) self-loops required to exit dead-end
//     partitions, and the stairway arcs that connect staircase doors on
//     adjacent floors.
//
//   - Skeleton: the lower-bound indoor distance |·|L of Xie et al. [22]:
//     plain Euclidean distance on one floor, and the cheapest combination of
//     staircase doors and stairway lengths across floors.
//
//   - Matrix and Oracle: the KoE* distance backends (Section V-A3), exact
//     all-pairs state distances or near-linear hub labels behind the
//     DistanceSource seam. Neither stores paths: static paths are paused
//     kernel runs (LazyTree).
package graph

import (
	"math"
	"sync"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// StateID indexes a (door, entered-partition) search state in a PathFinder.
type StateID int32

// NoState is the sentinel for "no state".
const NoState StateID = -1

type state struct {
	door model.DoorID
	part model.PartitionID
}

type arc struct {
	to StateID
	w  float64
}

// PathFinder holds the state graph of a space. Construction is O(states +
// arcs); the structure is immutable and safe for concurrent use. Shortest
// paths run on a caller-owned Workspace (the ...WS entry points,
// allocation-free across runs); only PointToPoint and DistancesFromPoint
// draw one from the finder's internal pool.
type PathFinder struct {
	s          *model.Space
	states     []state
	doorStates [][]StateID // states per door
	adj        [][]arc

	// wsPool backs PointToPoint and DistancesFromPoint so casual callers
	// (the query generator, the serving layer's Δ resolution) still reuse
	// kernel scratch across calls.
	wsPool sync.Pool
}

// NewPathFinder builds the state graph for s.
func NewPathFinder(s *model.Space) *PathFinder {
	pf := &PathFinder{
		s:          s,
		doorStates: make([][]StateID, s.NumDoors()),
	}
	// Enumerate states: one per (door, enterable partition), in strictly
	// increasing (door, partition) order — doors ascend and Enterable is
	// sorted. The kernel's tie-break (settle) rests on this numbering.
	for _, d := range s.Doors() {
		for _, v := range d.Enterable() {
			id := StateID(len(pf.states))
			pf.states = append(pf.states, state{door: d.ID, part: v})
			pf.doorStates[d.ID] = append(pf.doorStates[d.ID], id)
		}
	}
	// Arcs: from (d, v) the walker can leave v through any leave door dl of
	// v and commit to any partition enterable through dl other than v. The
	// hop weight is the intra-partition distance δd2d(d, dl) within v,
	// which for d == dl is the self-loop distance.
	pf.adj = make([][]arc, len(pf.states))
	for sid, st := range pf.states {
		door := s.Door(st.door)
		for _, dl := range s.Partition(st.part).LeaveDoors() {
			var w float64
			if dl == st.door {
				w = s.SelfLoopDist(st.door, st.part)
			} else {
				w = door.Pos.Dist(s.Door(dl).Pos)
			}
			if math.IsInf(w, 1) {
				continue
			}
			for _, next := range pf.doorStates[dl] {
				if pf.states[next].part == st.part {
					continue // no bounce-back into the partition being left
				}
				pf.adj[sid] = append(pf.adj[sid], arc{to: next, w: w})
			}
		}
	}
	// Stairway arcs: entering the staircase partition through its door on
	// one floor lets the walker traverse the stairway and exit through the
	// staircase door on the adjacent floor, committing to a partition
	// beyond it.
	for _, sw := range s.Stairways() {
		pf.addStairArcs(sw.From, sw.To, sw.Length)
		pf.addStairArcs(sw.To, sw.From, sw.Length)
	}
	return pf
}

// addStairArcs adds arcs for traversing a stairway entered at door a (into
// a's staircase partition), landing at door b on the adjacent floor. The
// walker may land committed into b's staircase partition (to continue
// vertically over the next stairway) or step through b into any other
// partition enterable there.
func (pf *PathFinder) addStairArcs(a, b model.DoorID, length float64) {
	stairA := pf.staircaseOf(a)
	stairB := pf.staircaseOf(b)
	if stairA == model.NoPartition || stairB == model.NoPartition {
		return
	}
	from := pf.StateOf(a, stairA)
	if from == NoState {
		return
	}
	for _, next := range pf.doorStates[b] {
		pf.adj[from] = append(pf.adj[from], arc{to: next, w: length})
	}
}

func (pf *PathFinder) staircaseOf(d model.DoorID) model.PartitionID {
	return pf.s.StaircaseOf(d)
}

// Space returns the space the finder was built for.
func (pf *PathFinder) Space() *model.Space { return pf.s }

// NumStates returns the number of (door, partition) states.
func (pf *PathFinder) NumStates() int { return len(pf.states) }

// Bytes estimates the resident size of the state graph — the state table,
// the per-door state lists and the adjacency arcs — for the serving layer's
// per-venue memory accounting.
func (pf *PathFinder) Bytes() int64 {
	b := int64(len(pf.states)) * 8 // (door, partition) per state
	for _, ds := range pf.doorStates {
		b += 24 + int64(len(ds))*4 // slice header + StateIDs
	}
	for _, as := range pf.adj {
		b += 24 + int64(len(as))*16 // slice header + (to, w) arcs
	}
	return b
}

// State returns the state with the given ID as (door, entered partition).
func (pf *PathFinder) State(id StateID) (model.DoorID, model.PartitionID) {
	st := pf.states[id]
	return st.door, st.part
}

// StateOf resolves the state for door d entered into partition v, or
// NoState when d is not enterable into v.
func (pf *PathFinder) StateOf(d model.DoorID, v model.PartitionID) StateID {
	for _, sid := range pf.doorStates[d] {
		if pf.states[sid].part == v {
			return sid
		}
	}
	return NoState
}

// StatesOfDoor returns all states of door d.
func (pf *PathFinder) StatesOfDoor(d model.DoorID) []StateID { return pf.doorStates[d] }

// Seed is a Dijkstra start state with an initial cost. EmitHop marks seeds
// whose door belongs on the reconstructed path (true for seeds derived from
// a start point, false when continuing from a route that already ends at
// the seed door).
type Seed struct {
	State   StateID
	Cost    float64
	EmitHop bool
}

// Hop is one step of a reconstructed route: the door passed and the
// partition committed to after passing it.
type Hop struct {
	Door model.DoorID
	Part model.PartitionID
}

// Path is a shortest route found by the PathFinder: the hop sequence and
// the total travel distance including seed costs and, for point targets,
// the final door-to-point leg.
type Path struct {
	Hops []Hop
	Dist float64
}

// Forbidden is a door filter: doors for which it reports true may not be
// used by the path (the regularity constraint of the paper — doors already
// on the partial route may not reappear).
type Forbidden func(model.DoorID) bool

// Costs is the query-time door cost model the shortest-path entry points
// evaluate against the immutable state graph. It generalizes the original
// forbidden-door hook: Block removes doors (the regularity constraint plus
// any Conditions-overlay closures) and Delay adds a per-traversal penalty
// to a door (congestion/queueing overlays). The zero value applies the
// static costs unchanged.
//
// Because Block only removes edges and Delay only increases arc costs,
// distances computed under the zero Costs are admissible lower bounds of
// distances under any non-zero Costs — the invariant that keeps the
// statically built Skeleton bounds and Matrix entries sound under live
// venue conditions (DESIGN.md §7).
type Costs struct {
	// Block reports doors that may not be traversed. nil blocks nothing.
	Block Forbidden
	// Delay returns the additive traversal penalty charged every time a
	// path passes the door. nil means no penalties.
	Delay func(model.DoorID) float64
}

// ForbidOnly wraps a plain door filter in a Costs with no penalties.
func ForbidOnly(f Forbidden) Costs { return Costs{Block: f} }

func (c Costs) blocked(d model.DoorID) bool { return c.Block != nil && c.Block(d) }

// AllowsStatic reports whether a statically computed path through the hops
// keeps its exact cost under these costs: no hop is blocked and none
// carries a delay. A false result is the degrade-to-bound signal of
// DistanceSource.AppendStaticPathIfAllowed: the static optimum may no
// longer be optimal, and the caller must recompute under the full cost
// model. The path stays optimal otherwise: its own cost is unchanged while
// every alternative can only have grown.
func (c Costs) AllowsStatic(hops []Hop) bool {
	for _, h := range hops {
		if c.blocked(h.Door) || c.delay(h.Door) > 0 {
			return false
		}
	}
	return true
}

func (c Costs) delay(d model.DoorID) float64 {
	if c.Delay == nil {
		return 0
	}
	return c.Delay(d)
}

// dijkstra runs a multi-seed Dijkstra into ws over the state graph:
// per-state distances, parent states and originating seed indices, all
// epoch-stamped so the workspace resets in O(1) between runs. With targets
// the run pauses once every reachable target has settled; nil targets
// exhaust the graph (ShortestTreeWS, DistancesFromPoint, the matrix sweep).
func (pf *PathFinder) dijkstra(ws *Workspace, seeds []Seed, costs Costs, targets []StateID) {
	pf.start(ws, seeds)
	pf.settle(ws, pf.adj, costs, targets, nil)
}

// start begins a run on ws: the previous run's tables are invalidated and
// the seeds enter the frontier with their given costs, regardless of costs
// (their legality — and any delay owed for passing the seed door — is the
// caller's concern). A −0 cost enters as +0: the queue orders distances by
// bit pattern, where −0 would sort after every other key.
func (pf *PathFinder) start(ws *Workspace, seeds []Seed) {
	ws.begin(len(pf.states))
	for si, sd := range seeds {
		if sd.State == NoState {
			continue
		}
		cost := sd.Cost
		if cost == 0 {
			cost = 0 // −0 → +0
		}
		if cost < ws.distAt(sd.State) {
			ws.set(sd.State, cost, NoState, int32(si))
			ws.push(sd.State, cost)
		}
	}
}

// settle is the kernel loop, the one place a run pops and relaxes: it
// resumes ws's run over adjacency adj until every target has settled
// (popped at its final distance) or the frontier empties. nil targets run
// to exhaustion; targets that already settled are answered without a pop,
// which is how a LazyTree resumes. Arcs into blocked doors are skipped and
// every arc pays the arrival door's delay on top of its static weight. adj
// is pf.adj except for the oracle's backward hub sweep, which passes the
// reverse adjacency under zero Costs and reads distances only.
//
// A run pauses after relaxing the settling state's arcs, so the frozen
// frontier resumes exactly where an uninterrupted run would continue.
// Unreachable targets never settle: the run degrades to full exhaustion,
// never to a wrong answer. States that did not settle may hold tentative
// distances; callers read targets and the states on their parent chains,
// all of which settled before them.
//
// legs, when non-nil, gives each target a final leg (a point search: the
// answer is the target least in dist+leg, earlier targets winning ties),
// and the run also stops once du + (least leg among unsettled targets) is
// greater than the best dist+leg among settled ones, where du is the
// distance just settled. That point stop is exact: every unsettled target
// t ends at dist(t) ≥ du, and float addition is monotone, so fl(dist(t) +
// leg(t)) ≥ fl(du + leg(t)) ≥ fl(du + minLeg) > best — no unsettled target
// can beat or tie the best, whatever the list order. Callers of a point
// search read only settled targets, and never resume it: its unsettled
// targets stay marked.
//
// Ties on distance break on the arrival state's ID. States are numbered in
// strictly increasing (door, partition) order — NewPathFinder enumerates
// doors in ID order and each door's sorted Enterable list, and
// PathFinderFromFlat rejects any other table — so the tie order is the
// seed kernel's (door, partition) order. That makes the chosen
// shortest-path tree deterministic and invariant under any order-preserving
// renumbering of doors, the property the closure-oracle tests rely on when
// comparing against a rebuilt, door-filtered space. (dist, state) is a
// strict total order over live queue entries, so the pop sequence — and
// with it every settled dist/parent entry — is the seed kernel's,
// independent of the queue's layout and of where a run pauses (the graph
// oracles diff it against the seed kernel kept in the tests).
func (pf *PathFinder) settle(ws *Workspace, adj [][]arc, costs Costs, targets []StateID, legs []float64) {
	remaining := 0
	for _, t := range targets {
		if t != NoState && ws.settled[t] != ws.epoch && ws.target[t] != ws.epoch {
			ws.target[t] = ws.epoch
			remaining++
		}
	}
	if len(targets) > 0 && remaining == 0 {
		return
	}
	// Without legs best stays +Inf, so the point stop never fires.
	best, minLeg := math.Inf(1), math.Inf(1)
	if legs != nil {
		best, minLeg = ws.pointStop(targets, legs)
	}
	// Zero Costs (static LazyTrees, the hub sweep, the matrix sweep) skip
	// the arrival door's lookup.
	static := costs.Block == nil && costs.Delay == nil
	for ws.qMask != 0 {
		u, du := ws.pop()
		if du > ws.dist[u] { // stale entry; mark is set for every pushed state
			continue
		}
		ws.settled[u] = ws.epoch
		seed := ws.seedOf[u]
		for _, a := range adj[u] {
			nd := du + a.w
			if !static {
				door := pf.states[a.to].door
				if costs.blocked(door) {
					continue
				}
				nd += costs.delay(door)
			}
			if nd < ws.distAt(a.to) {
				ws.set(a.to, nd, u, seed)
				ws.push(a.to, nd)
			}
		}
		if remaining > 0 && ws.target[u] == ws.epoch {
			if remaining--; remaining == 0 {
				return // every requested target is final
			}
			if legs != nil {
				best, minLeg = ws.pointStop(targets, legs)
			}
		}
		if du+minLeg > best {
			return // point stop: no unsettled target can beat or tie best
		}
	}
}

// pointStop returns the point stop's two terms over targets and their
// legs: the least dist+leg among settled targets and the least leg among
// the others (each +Inf over an empty set).
func (ws *Workspace) pointStop(targets []StateID, legs []float64) (best, minLeg float64) {
	best, minLeg = math.Inf(1), math.Inf(1)
	for i, t := range targets {
		switch {
		case t == NoState:
		case ws.settled[t] == ws.epoch:
			best = min(best, ws.dist[t]+legs[i])
		default:
			minLeg = min(minLeg, legs[i])
		}
	}
	return best, minLeg
}

// getWS draws a pooled workspace for PointToPoint and DistancesFromPoint.
func (pf *PathFinder) getWS() *Workspace {
	if v := pf.wsPool.Get(); v != nil {
		return v.(*Workspace)
	}
	return NewWorkspace()
}

func (pf *PathFinder) putWS(ws *Workspace) { pf.wsPool.Put(ws) }

// reconstructInto appends the hop sequence from the seeds to target onto
// dst (reversing in place, so dst's existing prefix is preserved) and
// returns the extended slice. The seed state's own door is included iff its
// seed has EmitHop set. target must have been reached by ws's current run.
func (pf *PathFinder) reconstructInto(dst []Hop, ws *Workspace, target StateID, seeds []Seed) []Hop {
	start := len(dst)
	cur := target
	for ws.parent[cur] != NoState {
		st := pf.states[cur]
		dst = append(dst, Hop{Door: st.door, Part: st.part})
		cur = ws.parent[cur]
	}
	if si := ws.seedOf[cur]; si >= 0 && seeds[si].EmitHop {
		st := pf.states[cur]
		dst = append(dst, Hop{Door: st.door, Part: st.part})
	}
	rev := dst[start:]
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return dst
}

// SeedsFromPoint builds the Dijkstra seeds for routes starting at point p:
// one seed per (leave door of p's host partition, partition committed after
// passing it), at cost δpt2d(p, door).
func (pf *PathFinder) SeedsFromPoint(p geom.Point) []Seed {
	host := pf.s.HostPartition(p)
	if host == model.NoPartition {
		return nil
	}
	return pf.SeedsFromPointIn(p, host)
}

// SeedsFromPointIn is SeedsFromPoint with the host partition already known.
func (pf *PathFinder) SeedsFromPointIn(p geom.Point, host model.PartitionID) []Seed {
	return pf.AppendSeedsFromPointIn(nil, p, host)
}

// AppendSeedsFromPointIn is SeedsFromPointIn appending into a caller-owned
// buffer, so per-query scratch can absorb the seed allocation.
func (pf *PathFinder) AppendSeedsFromPointIn(dst []Seed, p geom.Point, host model.PartitionID) []Seed {
	for _, d := range pf.s.Partition(host).LeaveDoors() {
		cost := p.Dist(pf.s.Door(d).Pos)
		if math.IsInf(cost, 1) {
			continue
		}
		for _, sid := range pf.doorStates[d] {
			if pf.states[sid].part == host {
				continue
			}
			dst = append(dst, Seed{State: sid, Cost: cost, EmitHop: true})
		}
	}
	return dst
}

// Tree is the result of a single-source (multi-seed) shortest-path
// computation: distances and parents for every state, from which paths to
// any number of targets can be read without re-running Dijkstra. KoE uses
// one Tree per stamp expansion to route to all candidate partitions.
//
// A tree reads straight out of the workspace that computed it and is valid
// only until the workspace's next run: reads after that panic rather than
// return stale distances.
type Tree struct {
	pf    *PathFinder
	ws    *Workspace
	epoch uint32
	seeds []Seed
}

// ShortestTreeWS computes shortest paths from the seeds to every reachable
// state under the cost model, on a caller-owned workspace. The returned
// tree (itself stored in the workspace) borrows the workspace's tables and
// is invalidated by its next run.
func (pf *PathFinder) ShortestTreeWS(ws *Workspace, seeds []Seed, costs Costs) *Tree {
	return pf.ShortestTreeToStatesWS(ws, seeds, nil, nil, costs)
}

// ShortestTreeToStatesWS is ShortestTreeWS with target-driven early
// termination: the run stops once every reachable target is settled, so the
// returned tree answers for the targets and for every state that settled
// before them. The sequence planner uses this to read distances to every
// entry state of a candidate-partition union from one Dijkstra without
// exhausting the graph. Non-nil legs, one per target, make the run a point
// search that may stop earlier (settle's point stop); Nearest then reads
// its answer.
func (pf *PathFinder) ShortestTreeToStatesWS(ws *Workspace, seeds []Seed, targets []StateID, legs []float64, costs Costs) *Tree {
	pf.start(ws, seeds)
	pf.settle(ws, pf.adj, costs, targets, legs)
	ws.tree = Tree{pf: pf, ws: ws, epoch: ws.epoch, seeds: seeds}
	return &ws.tree
}

func (t *Tree) check() {
	if t.ws.epoch != t.epoch {
		panic("graph: Tree read after its workspace ran another query")
	}
}

// settled reports whether s settled in the tree's run: its distance,
// parent chain and seed are final. A targeted run leaves the states beyond
// its stop unsettled, an exhaustive one only the unreachable states.
func (t *Tree) settled(s StateID) bool {
	t.check()
	return s != NoState && t.ws.settled[s] == t.epoch
}

// Dist returns the tree distance to a state, +Inf when it did not settle
// (unreachable, or beyond where a targeted run stopped).
func (t *Tree) Dist(s StateID) float64 {
	if !t.settled(s) {
		return math.Inf(1)
	}
	return t.ws.dist[s]
}

// Seed returns the index (into the seed slice the tree was built from) of
// the seed whose shortest path reaches state s, or -1 when s did not
// settle. Chained searches use this to attribute a settled target back to
// the label that fed it.
func (t *Tree) Seed(s StateID) int {
	if !t.settled(s) {
		return -1
	}
	return int(t.ws.seedOf[s])
}

// AppendPathTo reconstructs the hop sequence to a state into a
// caller-owned buffer; it returns dst unchanged and ok=false when the state
// did not settle.
func (t *Tree) AppendPathTo(dst []Hop, s StateID) ([]Hop, bool) {
	if !t.settled(s) {
		return dst, false
	}
	return t.pf.reconstructInto(dst, t.ws, s, t.seeds), true
}

// Nearest is a point search's answer: the target least in dist+leg among
// those that settled, the earlier one on ties, when that sum is below
// bound; NoState and bound otherwise. Read on a point-stopped tree (legs
// passed to ShortestTreeToStatesWS) it equals the exhaustive answer, since
// the stop leaves only targets that cannot beat or tie it.
func (t *Tree) Nearest(targets []StateID, legs []float64, bound float64) (StateID, float64) {
	best := NoState
	for i, s := range targets {
		if d := t.Dist(s) + legs[i]; d < bound {
			best, bound = s, d
		}
	}
	return best, bound
}

// ShortestToPointWS finds the cheapest route from the seeds to point pt,
// whose host partition must be hostPt: the route ends at some door state
// (d, hostPt) plus the in-partition leg |d, pt|. The run is a point search
// over the entry states of pt's host partition with those legs, so it
// stops as soon as no unsettled entry state can win; the path's hops
// borrow the workspace.
func (pf *PathFinder) ShortestToPointWS(ws *Workspace, seeds []Seed, pt geom.Point, hostPt model.PartitionID, costs Costs) (Path, bool) {
	ws.tbuf = pf.appendTargetStatesForPoint(ws.tbuf[:0], hostPt)
	ws.legs = ws.legs[:0]
	for _, sid := range ws.tbuf {
		ws.legs = append(ws.legs, pf.s.Door(pf.states[sid].door).Pos.Dist(pt))
	}
	t := pf.ShortestTreeToStatesWS(ws, seeds, ws.tbuf, ws.legs, costs)
	best, bestD := t.Nearest(ws.tbuf, ws.legs, math.Inf(1))
	if best == NoState {
		return Path{}, false
	}
	ws.hops = pf.reconstructInto(ws.hops[:0], ws, best, seeds)
	return Path{Hops: ws.hops, Dist: bestD}, true
}

func (pf *PathFinder) appendTargetStatesForPoint(dst []StateID, host model.PartitionID) []StateID {
	for _, d := range pf.s.Partition(host).EnterDoors() {
		if sid := pf.StateOf(d, host); sid != NoState {
			dst = append(dst, sid)
		}
	}
	return dst
}

// PointToPoint returns the indoor shortest distance between two points,
// including the degenerate same-partition case where the straight segment
// wins. It is the reference distance used by the query generator and the
// tests.
func (pf *PathFinder) PointToPoint(a, b geom.Point) float64 {
	hostA := pf.s.HostPartition(a)
	hostB := pf.s.HostPartition(b)
	if hostA == model.NoPartition || hostB == model.NoPartition {
		return math.Inf(1)
	}
	best := math.Inf(1)
	if hostA == hostB {
		best = a.Dist(b)
	}
	ws := pf.getWS()
	if p, ok := pf.ShortestToPointWS(ws, pf.SeedsFromPointIn(a, hostA), b, hostB, Costs{}); ok && p.Dist < best {
		best = p.Dist
	}
	pf.putWS(ws)
	return best
}

// DistancesFromPoint runs one Dijkstra from a point and returns, for every
// door, the shortest distance at which the door is reached (min over its
// states), or +Inf. The query generator uses this to find doors at a target
// distance δs2t from a start point.
func (pf *PathFinder) DistancesFromPoint(p geom.Point) []float64 {
	out := make([]float64, pf.s.NumDoors())
	for i := range out {
		out[i] = math.Inf(1)
	}
	ws := pf.getWS()
	pf.dijkstra(ws, pf.SeedsFromPoint(p), Costs{}, nil)
	for sid := range pf.states {
		d := ws.distAt(StateID(sid))
		door := pf.states[sid].door
		if d < out[door] {
			out[door] = d
		}
	}
	pf.putWS(ws)
	return out
}

// RegularHops reports whether a hop sequence satisfies the regularity
// principle: a door may appear more than once only in consecutive
// positions (the one-hop loop). The search validates reconstructed paths
// with this before splicing them into a route.
func RegularHops(hops []Hop) bool {
	seen := make(map[model.DoorID]int, len(hops))
	for i, h := range hops {
		if j, ok := seen[h.Door]; ok && j != i-1 {
			return false
		}
		seen[h.Door] = i
	}
	return true
}
