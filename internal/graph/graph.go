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
//   - Matrix: precomputed all-pairs state distances with path
//     reconstruction, the substrate of the KoE* variant (Section V-A3).
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
// paths run on a Workspace — either one the caller owns (the ...WS entry
// points, allocation-free across runs) or one drawn from the finder's
// internal pool (the plain entry points).
type PathFinder struct {
	s          *model.Space
	states     []state
	doorStates [][]StateID // states per door
	adj        [][]arc

	// wsPool backs the non-WS entry points so casual callers (the query
	// generator, examples) still reuse kernel scratch across calls.
	wsPool sync.Pool

	// useRef routes every shortest-path run through the retained seed
	// kernel (refkernel.go). Differential-testing seam only; see
	// UseReferenceKernel.
	useRef bool
}

// NewPathFinder builds the state graph for s.
func NewPathFinder(s *model.Space) *PathFinder {
	pf := &PathFinder{
		s:          s,
		doorStates: make([][]StateID, s.NumDoors()),
	}
	// Enumerate states: one per (door, enterable partition).
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

// NoForbidden allows every door.
func NoForbidden(model.DoorID) bool { return false }

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
// carries a delay. A false result is PathIfAllowed's degrade-to-bound
// signal — the static optimum may no longer be optimal and the caller must
// recompute under the full cost model.
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

// dijkstra runs a multi-seed Dijkstra into ws: per-state distances, parent
// states and originating seed indices, all epoch-stamped so the workspace
// resets in O(1) between runs. Arcs into blocked doors are skipped and every
// arc pays the arrival door's delay on top of its static weight; seed states
// are admitted with their given costs regardless (their legality — and any
// delay owed for passing the seed door — is the caller's concern).
//
// When targets is non-empty the run stops as soon as every reachable target
// has been settled (popped at its final distance): distances and parents of
// the targets are exact, while states the frontier never reached past the
// last target stay unmarked. Callers that read arbitrary states afterwards
// (ShortestTree, DistancesFromPoint, the matrix sweep) pass nil and exhaust
// the graph. Unreachable targets never settle, so the run degrades to full
// exhaustion and terminates when the frontier empties.
//
// Ties on distance break on the arrival state's (door, partition), which
// makes the chosen shortest-path tree deterministic and invariant under any
// order-preserving renumbering of doors — the property the closure-oracle
// tests rely on when comparing against a rebuilt, door-filtered space. The
// tie-break is a strict total order over live queue items, so the pop
// sequence — and with it every dist/parent table — is byte-identical to the
// seed kernel's, heap arity and early exit notwithstanding (enforced by the
// kernel-equivalence oracles against refkernel.go).
func (pf *PathFinder) dijkstra(ws *Workspace, seeds []Seed, costs Costs, targets []StateID) {
	ws.begin(len(pf.states))
	remaining := 0
	for _, t := range targets {
		if t == NoState {
			continue
		}
		if ws.target[t] != ws.epoch {
			ws.target[t] = ws.epoch
			remaining++
		}
	}
	for si, sd := range seeds {
		if sd.State == NoState {
			continue
		}
		if sd.Cost < ws.distAt(sd.State) {
			ws.set(sd.State, sd.Cost, NoState, int32(si))
			ws.heapPush(pf.item(sd.State, sd.Cost))
		}
	}
	for len(ws.heap) > 0 {
		it := ws.heapPop()
		if it.dist > ws.dist[it.state] { // stale entry; mark is set for every pushed state
			continue
		}
		if remaining > 0 && ws.target[it.state] == ws.epoch {
			ws.target[it.state] = 0 // settled; 0 never equals a live epoch
			remaining--
			if remaining == 0 {
				return // every requested target is final
			}
		}
		for _, a := range pf.adj[it.state] {
			door := pf.states[a.to].door
			if costs.blocked(door) {
				continue
			}
			nd := it.dist + a.w + costs.delay(door)
			if nd < ws.distAt(a.to) {
				ws.set(a.to, nd, it.state, ws.seedOf[it.state])
				ws.heapPush(pf.item(a.to, nd))
			}
		}
	}
}

// runDijkstra dispatches a shortest-path run to the workspace kernel or, on
// a finder switched by UseReferenceKernel, to the retained seed kernel (which
// ignores targets — the seed never terminated early).
func (pf *PathFinder) runDijkstra(ws *Workspace, seeds []Seed, costs Costs, targets []StateID) {
	if pf.useRef {
		pf.refDijkstra(ws, seeds, costs)
		return
	}
	pf.dijkstra(ws, seeds, costs, targets)
}

// getWS draws a pooled workspace for the non-WS entry points.
func (pf *PathFinder) getWS() *Workspace {
	if v := pf.wsPool.Get(); v != nil {
		return v.(*Workspace)
	}
	return NewWorkspace()
}

func (pf *PathFinder) putWS(ws *Workspace) { pf.wsPool.Put(ws) }

// UseReferenceKernel permanently switches this finder to the seed
// shortest-path kernel retained in refkernel.go. It exists solely for the
// kernel-equivalence oracles, which diff the workspace kernel against the
// seed implementation on engines that differ in nothing else. Call it once,
// before the finder serves any query; it is not synchronized.
func (pf *PathFinder) UseReferenceKernel() { pf.useRef = true }

// item builds a heap entry carrying the state's (door, partition) tiebreak.
func (pf *PathFinder) item(s StateID, d float64) heapItem {
	st := pf.states[s]
	return heapItem{state: s, dist: d, door: st.door, part: st.part}
}

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
// A tree reads straight out of the workspace that computed it. Trees from
// ShortestTree own a private workspace and stay valid indefinitely; trees
// from ShortestTreeWS borrow the caller's workspace and are valid only
// until its next run (reads after that panic rather than return stale
// distances).
type Tree struct {
	pf    *PathFinder
	ws    *Workspace
	epoch uint32
	seeds []Seed
}

// ShortestTree computes shortest paths from the seeds to every reachable
// state under the cost model. The tree owns its storage; use ShortestTreeWS
// on a long-lived workspace to make repeated tree builds allocation-free.
func (pf *PathFinder) ShortestTree(seeds []Seed, costs Costs) *Tree {
	t := pf.ShortestTreeWS(NewWorkspace(), seeds, costs)
	return &Tree{pf: t.pf, ws: t.ws, epoch: t.epoch, seeds: t.seeds}
}

// ShortestTreeWS is ShortestTree on a caller-owned workspace. The returned
// tree (itself stored in the workspace) borrows the workspace's tables and
// is invalidated by its next run.
func (pf *PathFinder) ShortestTreeWS(ws *Workspace, seeds []Seed, costs Costs) *Tree {
	pf.runDijkstra(ws, seeds, costs, nil)
	ws.tree = Tree{pf: pf, ws: ws, epoch: ws.epoch, seeds: seeds}
	return &ws.tree
}

// ShortestTreeToStatesWS is ShortestTreeWS with target-driven early
// termination: the run stops once every reachable target is settled, so the
// returned tree's Dist/PathTo/Seed are exact for the targets (and for any
// state that happened to settle before them) but may report +Inf for states
// the truncated frontier never reached. The sequence planner uses this to
// read distances to every entry state of a candidate-partition union from
// one Dijkstra without exhausting the graph.
func (pf *PathFinder) ShortestTreeToStatesWS(ws *Workspace, seeds []Seed, targets []StateID, costs Costs) *Tree {
	pf.runDijkstra(ws, seeds, costs, targets)
	ws.tree = Tree{pf: pf, ws: ws, epoch: ws.epoch, seeds: seeds}
	return &ws.tree
}

func (t *Tree) check() {
	if t.ws.epoch != t.epoch {
		panic("graph: Tree read after its workspace ran another query")
	}
}

// Dist returns the tree distance to a state (+Inf when unreachable).
func (t *Tree) Dist(s StateID) float64 {
	t.check()
	return t.ws.distAt(s)
}

// Seed returns the index (into the seed slice the tree was built from) of
// the seed whose shortest path reaches state s, or -1 when s is unreachable.
// Chained searches use this to attribute a settled target back to the label
// that fed it.
func (t *Tree) Seed(s StateID) int {
	t.check()
	if s == NoState || math.IsInf(t.ws.distAt(s), 1) {
		return -1
	}
	return int(t.ws.seedOf[s])
}

// PathTo reconstructs the hop sequence to a state; ok is false when the
// state is unreachable.
func (t *Tree) PathTo(s StateID) ([]Hop, bool) { return t.AppendPathTo(nil, s) }

// AppendPathTo is PathTo appending into a caller-owned buffer; it returns
// dst unchanged when the state is unreachable.
func (t *Tree) AppendPathTo(dst []Hop, s StateID) ([]Hop, bool) {
	t.check()
	if s == NoState || math.IsInf(t.ws.distAt(s), 1) {
		return dst, false
	}
	return t.pf.reconstructInto(dst, t.ws, s, t.seeds), true
}

// ShortestToStates finds the cheapest path from the seeds to any of the
// target states (ties break on list order). It returns the best target and
// path, or ok=false when none is reachable.
func (pf *PathFinder) ShortestToStates(seeds []Seed, targets []StateID, costs Costs) (StateID, Path, bool) {
	ws := pf.getWS()
	best, p, ok := pf.ShortestToStatesWS(ws, seeds, targets, costs)
	if ok {
		p.Hops = append([]Hop(nil), p.Hops...) // unborrow before the workspace is pooled
	}
	pf.putWS(ws)
	return best, p, ok
}

// ShortestToStatesWS is ShortestToStates on a caller-owned workspace. The
// target set drives early termination: the run stops once every reachable
// target is settled instead of exhausting the graph. The returned path's
// hops borrow the workspace and are valid until its next run.
func (pf *PathFinder) ShortestToStatesWS(ws *Workspace, seeds []Seed, targets []StateID, costs Costs) (StateID, Path, bool) {
	pf.runDijkstra(ws, seeds, costs, targets)
	best := NoState
	bestD := math.Inf(1)
	for _, t := range targets {
		if t == NoState {
			continue
		}
		if d := ws.distAt(t); d < bestD {
			bestD = d
			best = t
		}
	}
	if best == NoState {
		return NoState, Path{}, false
	}
	ws.hops = pf.reconstructInto(ws.hops[:0], ws, best, seeds)
	return best, Path{Hops: ws.hops, Dist: bestD}, true
}

// ShortestToState finds the cheapest path from the seeds to one state.
func (pf *PathFinder) ShortestToState(seeds []Seed, target StateID, costs Costs) (Path, bool) {
	ws := pf.getWS()
	p, ok := pf.ShortestToStateWS(ws, seeds, target, costs)
	if ok {
		p.Hops = append([]Hop(nil), p.Hops...)
	}
	pf.putWS(ws)
	return p, ok
}

// ShortestToStateWS is ShortestToState on a caller-owned workspace, with
// single-target early termination; the path's hops borrow the workspace.
func (pf *PathFinder) ShortestToStateWS(ws *Workspace, seeds []Seed, target StateID, costs Costs) (Path, bool) {
	ws.tbuf = append(ws.tbuf[:0], target)
	_, p, ok := pf.ShortestToStatesWS(ws, seeds, ws.tbuf, costs)
	return p, ok
}

// ShortestToPoint finds the cheapest route from the seeds to point pt,
// whose host partition must be hostPt: the route ends at some door state
// (d, hostPt) plus the in-partition leg |d, pt|.
func (pf *PathFinder) ShortestToPoint(seeds []Seed, pt geom.Point, hostPt model.PartitionID, costs Costs) (Path, bool) {
	ws := pf.getWS()
	p, ok := pf.ShortestToPointWS(ws, seeds, pt, hostPt, costs)
	if ok {
		p.Hops = append([]Hop(nil), p.Hops...)
	}
	pf.putWS(ws)
	return p, ok
}

// ShortestToPointWS is ShortestToPoint on a caller-owned workspace. The
// run terminates once every entry state of pt's host partition is settled
// (all of them, because the final door-to-point leg differs per state); the
// path's hops borrow the workspace.
func (pf *PathFinder) ShortestToPointWS(ws *Workspace, seeds []Seed, pt geom.Point, hostPt model.PartitionID, costs Costs) (Path, bool) {
	ws.tbuf = pf.appendTargetStatesForPoint(ws.tbuf[:0], hostPt)
	pf.runDijkstra(ws, seeds, costs, ws.tbuf)
	best := NoState
	bestD := math.Inf(1)
	for _, sid := range ws.tbuf {
		leg := pf.s.Door(pf.states[sid].door).Pos.Dist(pt)
		if d := ws.distAt(sid) + leg; d < bestD {
			bestD = d
			best = sid
		}
	}
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
	if p, ok := pf.ShortestToPoint(pf.SeedsFromPointIn(a, hostA), b, hostB, Costs{}); ok && p.Dist < best {
		best = p.Dist
	}
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
	seeds := pf.SeedsFromPoint(p)
	pf.runDijkstra(ws, seeds, Costs{}, nil)
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

type heapItem struct {
	state StateID
	dist  float64
	// door and part order equal-distance pops deterministically. Comparing
	// doors (not StateIDs) keeps the order invariant under door-preserving
	// renumberings, so a space rebuilt without some doors explores ties the
	// same way the overlaid original does.
	door model.DoorID
	part model.PartitionID
}
