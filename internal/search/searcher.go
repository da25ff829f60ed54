package search

import (
	"container/heap"
	"context"
	"math"

	"ikrq/internal/graph"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/route"
)

// searcher carries the per-query state of Algorithm 1.
type searcher struct {
	e   *Engine
	req Request
	opt Options

	q      *keyword.Query
	hostPs model.PartitionID
	hostPt model.PartitionID
	maxRho float64

	// cap is the effective pruning/acceptance bound: Δ under the hard
	// constraint, Δ·(1+SoftDeltaSlack) under the soft one. Ranking always
	// uses Δ (Equation 1), so over-budget routes score negatively on the
	// spatial term.
	cap float64
	// gamma is the popularity weight; popBonus adds γ·mean(popularity over
	// KP) to every score.
	gamma float64

	queue stampHeap
	prime *route.PrimeTable
	top   *topK

	// dn and df are the door sets Dn and Df of Algorithm 1: doors already
	// screened by Pruning Rule 2, split into survivors and pruned doors.
	dn, df []bool

	// ov is the request's Conditions overlay as dense door sets, backed by
	// the scratch bundle. It is held by value, so screenDoor's closed-door
	// check is one field load.
	ov overlay

	// keyAlive tracks the global key-partition set P; Pruning Rule 3
	// removes partitions permanently (KoE). It is an epoch-stamped dense
	// set, so scratch reuse resets it in O(1).
	keyParts []model.PartitionID
	keyAlive *partSet

	// ws is the searcher's shortest-path kernel workspace, owned by the
	// scratch bundle: every Dijkstra the query runs (each KoE expansion's
	// paused run, shortest-route completions) reuses its epoch-stamped
	// tables and radix queue. koeRun is the current KoE expansion's paused
	// run on it, nil until the expansion's first path (see findKoE).
	ws     *graph.Workspace
	koeRun *graph.LazyTree

	// staticWS holds the KoE* static-path cache: the stamp tail's static
	// shortest-path tree grows lazily in this dedicated workspace —
	// settled only as far as the expansion targets actually reach — and
	// serves every target of that tail; staticTree/staticSrc tag the
	// cached tree. The workspace is separate from ws because the
	// expansion's paused run lives there and would invalidate the tree.
	// Allocated on the first KoE* static path; other variants never pay
	// for it.
	staticWS   *graph.Workspace
	staticTree *graph.LazyTree
	staticSrc  graph.StateID

	// routeDoors is the door set of the stamp costsFor last ran for, filled
	// once per call: the regularity filter of that stamp's Costs and of
	// spliceIsRegular read it instead of walking the route. A Costs built
	// for one stamp is therefore invalid once costsFor runs for another.
	routeDoors *doorSet

	// bounds memoises Pruning Rule 3's PartitionBound(ps, v, pt) per
	// partition: within a query it depends on v alone. lbToPtMemo holds
	// |d, pt|L per door, and doorHosts the host partition of each via
	// door's position (see lbToPt and viaBound).
	bounds     *memo[model.PartitionID, float64]
	lbToPtMemo *memo[model.DoorID, float64]
	doorHosts  *memo[model.DoorID, model.PartitionID]

	// psStairs and ptStairs are ps's and pt's shares of the cross-floor
	// skeleton bounds, filled once per query: Rule 2's screen bounds
	// |ps, d|L and lbToPt bounds |d, pt|L from them, bit-identical to
	// Skeleton.LowerBound.
	psStairs *graph.StairRow
	ptStairs *graph.StairLegs

	// Reused per-expansion buffers. Their contents never survive one find
	// or connect step: seedBuf holds the current expansion's Dijkstra
	// seeds, hopBuf the path being spliced, esBuf the stamps returned to
	// run() (consumed before the next expansion), expandBuf/commitBuf the
	// ToE door and partition fan-out, and koeTargetBuf/koeRemoved the KoE
	// candidate-partition set.
	seedBuf      []graph.Seed
	hopBuf       []graph.Hop
	esBuf        []*stamp
	expandBuf    []model.DoorID
	commitBuf    []model.PartitionID
	koeTargetBuf []model.PartitionID
	koeRemoved   *partSet

	// KoE* backend-bound pruning (see findKoE): bbSrc is the engine's
	// distance backend when the bound is active, nil otherwise; ptStates and
	// ptLegs hold the terminal partition's entry states and the exact final
	// leg |door, pt| for each — every completed route must pass one of them,
	// so min over entries of (backend Dist + leg) lower-bounds the distance
	// remaining after any expansion target.
	bbSrc    graph.DistanceSource
	ptStates []graph.StateID
	ptLegs   []float64

	// scratch is the pooled bundle the query runs on; its arenas back
	// every stamp, route node, KP node, completion and sims vector.
	scratch *execScratch

	// ctx is polled every ctxPollEvery pops of the main loop; once it is
	// cancelled the run aborts and err carries ctx.Err().
	ctx context.Context
	err error

	seq   int64
	stats Stats
}

// ctxPollEvery is how many queue pops run between context polls: rare
// enough that the poll is free against the work in between, frequent enough
// that cancellation lands within a few expansion batches.
const ctxPollEvery = 64

// initBackendBound arms KoE* backend-bound pruning: it caches the distance
// backend and precomputes the terminal partition's entry states with their
// exact final legs to pt. Inactive (bbSrc nil) without Precompute, under the
// distance-pruning ablation, or when explicitly disabled.
func (sr *searcher) initBackendBound(stateBuf []graph.StateID, legBuf []float64) {
	if !sr.opt.Precompute || sr.opt.DisableDistancePruning || sr.opt.DisableBackendBound {
		return
	}
	states, legs := stateBuf[:0], legBuf[:0]
	for _, d := range sr.e.s.Partition(sr.hostPt).EnterDoors() {
		st := sr.e.pf.StateOf(d, sr.hostPt)
		if st == graph.NoState {
			continue
		}
		states = append(states, st)
		legs = append(legs, sr.e.s.Door(d).Pos.Dist(sr.req.Pt))
	}
	sr.ptStates, sr.ptLegs = states, legs
	sr.bbSrc = sr.e.distanceSource()
}

// backendRemaining lower-bounds the distance still to walk from expansion
// target state tm to a completion at pt: every route ends by entering the
// terminal partition through one of its entry states, the backend's Dist is
// an admissible bound on reaching that state statically (overlay penalties
// only add), and the final leg is exact. min over entries keeps the bound
// admissible; +Inf (no reachable entry) correctly prunes everything, since
// no stamp through tm can complete at all.
//
// The bound is lowered by graph.SumSlack of the cap. Every test that reads
// it sums it with the stamp's distance and compares the total against the
// cap, while the route itself is summed hop by hop, and the backend sums a
// path around its hubs: at the cap the two totals can differ in the last
// ULPs, and an exact bound would then drop a route that ends exactly at Δ
// (DESIGN.md §12).
func (sr *searcher) backendRemaining(tm graph.StateID) float64 {
	best := math.Inf(1)
	for i, st := range sr.ptStates {
		if d := sr.bbSrc.Dist(tm, st) + sr.ptLegs[i]; d < best {
			best = d
		}
	}
	return best - sr.cap*graph.SumSlack
}

// initKeyPartitions computes P ← (∪ I2P(κ(wQ).Wi)) \ v(ps) ∪ v(pt)
// (Algorithm 1 line 3) into buf, whose capacity the scratch reuses.
func (sr *searcher) initKeyPartitions(buf []model.PartitionID) {
	sr.keyAlive.reset(sr.e.s.NumPartitions())
	for _, v := range sr.q.KeyPartitions() {
		if v == sr.hostPs && v != sr.hostPt {
			continue
		}
		if !sr.keyAlive.contains(v) {
			sr.keyAlive.add(v)
			buf = append(buf, v)
		}
	}
	if !sr.keyAlive.contains(sr.hostPt) {
		sr.keyAlive.add(sr.hostPt)
		buf = append(buf, sr.hostPt)
	}
	sr.keyParts = buf
}

// newSims returns a zeroed, arena-backed similarity vector of length n.
func (sr *searcher) newSims(n int) []float64 { return sr.scratch.sims.alloc(n) }

// cloneSims copies a similarity vector into query-lifetime storage. Vectors
// that escape into results are copied again by result(), so arena backing is
// safe here.
func (sr *searcher) cloneSims(s []float64) []float64 {
	out := sr.newSims(len(s))
	copy(out, s)
	return out
}

// newStamp returns a blank arena-backed stamp and counts it in the stats.
func (sr *searcher) newStamp() *stamp {
	sr.stats.StampsCreated++
	return sr.scratch.stamps.alloc()
}

// newNode appends an arena-backed route node. Nodes never outlive the query
// — result() copies the winning routes' door and partition sequences — so
// the arena resets wholesale.
func (sr *searcher) newNode(parent *route.Node, d model.DoorID, entered model.PartitionID, dist float64) *route.Node {
	n := sr.scratch.nodes.alloc()
	*n = route.Node{Parent: parent, Door: d, Entered: entered, Dist: dist, Depth: parent.Depth + 1}
	return n
}

// kpAppend appends an arena-backed node to a key-partition sequence; like
// Append it coalesces a repeated tail partition without consuming storage.
func (sr *searcher) kpAppend(kp *route.KPNode, v model.PartitionID) *route.KPNode {
	if kp != nil && kp.Part == v {
		return kp
	}
	return kp.AppendInto(sr.scratch.kps.alloc(), v)
}

// newComplete returns a blank arena-backed completed-route record; result()
// copies everything that escapes the query.
func (sr *searcher) newComplete() *complete { return sr.scratch.completes.alloc() }

// run executes the find-and-connect loop of Algorithm 1.
func (sr *searcher) run() {
	s0 := sr.initialStamp()
	if sr.hostPs == sr.hostPt {
		sr.tryDirectStart(s0)
	}
	sr.push(s0)

	for len(sr.queue) > 0 {
		if sr.stats.Pops%ctxPollEvery == 0 {
			if err := sr.ctx.Err(); err != nil {
				sr.err = err
				return
			}
		}
		if sr.opt.MaxExpansions > 0 && sr.stats.Pops >= sr.opt.MaxExpansions {
			sr.stats.Truncated = true
			break
		}
		si := heap.Pop(&sr.queue).(*stamp)
		sr.stats.Pops++
		var es []*stamp
		if sr.opt.Algorithm == KoE {
			es = sr.findKoE(si)
		} else {
			es = sr.findToE(si)
		}
		for _, sj := range es {
			sr.connect(sj)
		}
	}
}

func (sr *searcher) initialStamp() *stamp {
	sims := sr.newSims(sr.q.Len())
	if w := sr.e.x.P2I(sr.hostPs); w != keyword.NoIWord {
		sr.q.Absorb(sims, w)
	}
	rho := keyword.Relevance(sims)
	perfect := keyword.PerfectlyCovered(sims)
	kp := route.NewKP(sr.hostPs)
	s0 := sr.newStamp()
	*s0 = stamp{
		node:         route.NewStart(sr.hostPs),
		kp:           kp,
		v:            sr.hostPs,
		sims:         sims,
		rho:          rho,
		psi:          sr.psi(rho, 0, kp),
		perfect:      perfect,
		newlyPerfect: perfect,
		seq:          sr.nextSeq(),
	}
	return s0
}

// psi scores a route state: Equation 1 plus the optional popularity bonus.
func (sr *searcher) psi(rho, dist float64, kp *route.KPNode) float64 {
	return score(sr.req.Alpha, rho, sr.maxRho, dist, sr.req.Delta) + sr.popBonus(kp)
}

// popBonus returns γ · mean popularity over the key-partition sequence.
func (sr *searcher) popBonus(kp *route.KPNode) float64 {
	if sr.gamma == 0 || sr.e.popularity == nil || kp == nil {
		return 0
	}
	sum, n := 0.0, 0
	for cur := kp; cur != nil; cur = cur.Parent {
		sum += sr.e.popularity[cur.Part]
		n++
	}
	return sr.gamma * sum / float64(n)
}

// tryDirectStart handles the degenerate route (ps, pt) when both points
// share a partition; Algorithm 1 only connects stamps produced by find, so
// the doorless route is offered to the collector explicitly.
func (sr *searcher) tryDirectStart(s0 *stamp) {
	dist := sr.req.Ps.Dist(sr.req.Pt)
	if dist > sr.cap {
		return
	}
	sims := s0.sims
	if w := sr.e.x.P2I(sr.hostPt); w != keyword.NoIWord && sr.q.WouldImprove(sims, w) {
		sims = sr.cloneSims(sims)
		sr.q.Absorb(sims, w)
	}
	rho := keyword.Relevance(sims)
	kp := sr.kpAppend(s0.kp, sr.hostPt)
	c := sr.newComplete()
	*c = complete{
		node: s0.node,
		kp:   kp,
		sims: sims,
		rho:  rho,
		psi:  sr.psi(rho, dist, kp),
		dist: dist,
	}
	sr.offerComplete(c)
}

func (sr *searcher) nextSeq() int64 {
	sr.seq++
	return sr.seq
}

func (sr *searcher) push(s *stamp) {
	heap.Push(&sr.queue, s)
	if len(sr.queue) > sr.stats.PeakQueue {
		sr.stats.PeakQueue = len(sr.queue)
	}
}

// primeCheck implements the Pruning Rule 5 gate; it always passes when the
// rule is disabled (ToE\P).
func (sr *searcher) primeCheck(tail model.DoorID, kp *route.KPNode, dist float64) bool {
	if sr.opt.DisablePrime {
		return true
	}
	return sr.prime.Check(tail, kp, dist)
}

func (sr *searcher) primeUpdate(tail model.DoorID, kp *route.KPNode, dist float64) {
	if sr.opt.DisablePrime {
		return
	}
	sr.prime.Update(tail, kp, dist)
}

// screenDoor screens a door for expansion: overlay closures first (a closed
// door never survives, independent of any ablation switch), then Pruning
// Rule 2 with the Dn/Df caching of Algorithm 1, tightened by the door's
// overlay penalty — a route passing d pays delay(d) at least once, so
// |ps,d|L + delay(d) + |d,pt|L stays a valid lower bound. It reports
// whether the door survives.
func (sr *searcher) screenDoor(d model.DoorID) bool {
	if sr.ov.isClosed(d) {
		sr.stats.PrunedClosed++
		return false
	}
	if sr.opt.DisableDistancePruning {
		return true
	}
	if sr.df[d] {
		return false
	}
	if sr.dn[d] {
		return true
	}
	if sr.e.sk.BoundFrom(sr.psStairs, sr.e.s.Door(d).Pos)+sr.ov.penalty(d)+sr.lbToPt(d) > sr.cap {
		sr.df[d] = true
		sr.stats.PrunedRule2++
		return false
	}
	sr.dn[d] = true
	return true
}

// lbToPt returns |d, pt|L, computed once per door and query: screenDoor's
// Rule 2 bound fills it, and the first use fills it for a door the screen
// skipped (the distance-pruning ablation screens nothing).
func (sr *searcher) lbToPt(d model.DoorID) float64 {
	if b, ok := sr.lbToPtMemo.get(d); ok {
		return b
	}
	b := sr.e.sk.BoundTo(sr.e.s.Door(d).Pos, sr.ptStairs)
	sr.lbToPtMemo.put(d, b)
	return b
}

// makeStamp extends si through door dl into partition vj at cumulative
// distance dist, maintaining sims, KP, ρ and ψ incrementally.
func (sr *searcher) makeStamp(si *stamp, dl model.DoorID, vj model.PartitionID, dist float64) *stamp {
	crossed := si.v
	kp := si.kp
	if sr.q.IsKeyPartition(crossed) {
		kp = sr.kpAppend(kp, crossed)
	}
	sims := sr.absorbThroughDoor(si.sims, dl)
	rho := si.rho
	if len(sims) > 0 && &sims[0] != &si.sims[0] {
		rho = keyword.Relevance(sims)
	}
	perfect := si.perfect || keyword.PerfectlyCovered(sims)
	sj := sr.newStamp()
	*sj = stamp{
		node:         sr.newNode(si.node, dl, vj, dist),
		kp:           kp,
		v:            vj,
		sims:         sims,
		rho:          rho,
		psi:          sr.psi(rho, dist, kp),
		perfect:      perfect,
		newlyPerfect: perfect && !si.perfect,
		seq:          sr.nextSeq(),
	}
	return sj
}

// absorbThroughDoor returns sims with the i-words of the partitions
// leaveable through door d folded in, copying (into the sims arena) only
// when something improves.
func (sr *searcher) absorbThroughDoor(sims []float64, d model.DoorID) []float64 {
	q, x, s := sr.q, sr.e.x, sr.e.s
	improved := false
	for _, v := range s.Door(d).Leaveable() {
		if w := x.P2I(v); w != keyword.NoIWord && q.WouldImprove(sims, w) {
			improved = true
			break
		}
	}
	if !improved {
		return sims
	}
	out := sr.cloneSims(sims)
	for _, v := range s.Door(d).Leaveable() {
		if w := x.P2I(v); w != keyword.NoIWord {
			q.Absorb(out, w)
		}
	}
	return out
}

// spliceStamp extends si along a multi-hop shortest path (KoE expansion or
// connect completion), folding every hop into the stamp. It returns nil if
// the spliced route violates global regularity.
func (sr *searcher) spliceStamp(si *stamp, hops []graph.Hop) *stamp {
	// Global regularity: hops must not repeat doors of the existing route
	// except the immediate tail loop, and must be internally regular.
	if !sr.spliceIsRegular(si, hops) {
		sr.stats.IrregularPaths++
		return nil
	}
	cur := si
	prevDist := si.dist()
	// Distances along the path: recompute hop by hop from geometry so the
	// stamp's cumulative distances stay exact.
	for _, h := range hops {
		hopDist := sr.hopDistance(cur, h.Door)
		if math.IsInf(hopDist, 1) {
			return nil // path inconsistent with the model; defensive
		}
		prevDist += hopDist
		cur = sr.makeStamp(cur, h.Door, h.Part, prevDist)
	}
	return cur
}

// hopDistance returns the distance of extending cur through door dl:
// δpt2d for the initial point hop, the self-loop distance for a repeated
// tail, δd2d within the current partition otherwise — and, when the
// current partition is a staircase and dl is the stairway's other end, the
// stairway traversal cost. Every variant pays the overlay's traversal
// penalty for dl on top (a +Inf geometric distance stays +Inf), matching
// the delay the graph cost model charges per arc, so spliced stamps carry
// exactly the distances the Dijkstra paths were chosen by.
func (sr *searcher) hopDistance(cur *stamp, dl model.DoorID) float64 {
	tail := cur.tail()
	if tail == model.NoDoor {
		return sr.req.Ps.Dist(sr.e.s.Door(dl).Pos) + sr.ov.penalty(dl)
	}
	if tail == dl {
		return sr.e.s.SelfLoopDist(dl, cur.v) + sr.ov.penalty(dl)
	}
	if d := sr.e.s.D2DDistVia(tail, dl, cur.v); !math.IsInf(d, 1) {
		return d + sr.ov.penalty(dl)
	}
	return sr.stairHopDistance(cur, dl) + sr.ov.penalty(dl)
}

// stairHopDistance handles hops that traverse a stairway anchored in the
// stamp's staircase partition: walk to the anchor door, then the stairway.
func (sr *searcher) stairHopDistance(cur *stamp, dl model.DoorID) float64 {
	if k := sr.e.s.Partition(cur.v).Kind; k != model.KindStaircase && k != model.KindElevator {
		return math.Inf(1)
	}
	tailPos := sr.e.s.Door(cur.tail()).Pos
	best := math.Inf(1)
	for _, anchor := range sr.e.s.Partition(cur.v).LeaveDoors() {
		for _, sw := range sr.e.s.StairwaysFrom(anchor) {
			if sw.To != dl {
				continue
			}
			walk := 0.0
			if anchor != cur.tail() {
				walk = tailPos.Dist(sr.e.s.Door(anchor).Pos)
			}
			if c := walk + sw.Length; c < best {
				best = c
			}
		}
	}
	return best
}

// spliceIsRegular reports whether hops may extend si: internally regular,
// and reusing none of the route's doors except the immediate self-loop on
// its tail. It reads the route door set, which the caller's costsFor(si)
// filled.
func (sr *searcher) spliceIsRegular(si *stamp, hops []graph.Hop) bool {
	if !graph.RegularHops(hops) {
		return false
	}
	tail := si.tail()
	for i, h := range hops {
		if h.Door == tail && i == 0 {
			continue // immediate self-loop on the tail is the allowed repeat
		}
		if sr.routeDoors.contains(h.Door) {
			return false
		}
	}
	return true
}

// costsFor returns the query-time cost model for shortest paths continuing
// a stamp: the overlay's closed doors and traversal penalties plus the
// regularity exclusions — doors already on the route, except the tail
// itself (its only legal reuse, the immediate self-loop, is validated by
// spliceIsRegular afterwards). It refills the route door set for si, so it
// invalidates the Costs of any earlier stamp (see routeDoors).
func (sr *searcher) costsFor(si *stamp) graph.Costs {
	doors := sr.routeDoors
	doors.reset(sr.e.s.NumDoors())
	for n := si.node; n != nil; n = n.Parent {
		if n.Door != model.NoDoor {
			doors.add(n.Door)
		}
	}
	tail := si.tail()
	return sr.ov.costs(func(d model.DoorID) bool {
		return d != tail && doors.contains(d)
	})
}

// partitionBound returns Pruning Rule 3's bound PartitionBound(ps, v, pt),
// computed once per partition and query.
func (sr *searcher) partitionBound(v model.PartitionID) float64 {
	if b, ok := sr.bounds.get(v); ok {
		return b
	}
	b := sr.e.sk.PartitionBound(sr.req.Ps, sr.hostPs, v, sr.req.Pt, sr.hostPt)
	sr.bounds.put(v, b)
	return b
}

// viaBound returns KoE's distance-constraint bound δLB(x, v, pt)
// (Algorithm 6 line 11) from the position x of door d, a stamp's tail.
// Space.HostPartition(x) picks the lowest-ID partition containing x, which
// need not be one of d's own partitions, so it is point-located once per
// door and query rather than derived from the door.
func (sr *searcher) viaBound(d model.DoorID, v model.PartitionID) float64 {
	x := sr.e.s.Door(d).Pos
	host, ok := sr.doorHosts.get(d)
	if !ok {
		host = sr.e.s.HostPartition(x)
		sr.doorHosts.put(d, host)
	}
	return sr.e.sk.PartitionBound(x, host, v, sr.req.Pt, sr.hostPt)
}

// offerComplete runs the acceptance checks shared by every completion site
// (Algorithm 5 lines 5–7 and 15–17) and records the route.
func (sr *searcher) offerComplete(c *complete) {
	if c.dist > sr.cap {
		sr.stats.PrunedDelta++
		return
	}
	if !sr.opt.DisableKBound && sr.top.count() >= sr.req.K && c.psi <= sr.top.kbound() {
		sr.stats.PrunedRule4++
		return
	}
	if !sr.primeCheck(model.NoDoor, c.kp, c.dist) {
		sr.stats.PrunedRule5++
		return
	}
	sr.top.add(c)
	sr.primeUpdate(model.NoDoor, c.kp, c.dist)
}

// result converts the collector's content into the public Result.
func (sr *searcher) result() *Result {
	cs := sr.top.results()
	res := &Result{Routes: make([]Route, len(cs))}
	for i, c := range cs {
		res.Routes[i] = Route{
			Doors:   c.node.Doors(),
			Entered: c.node.EnteredPartitions(),
			KP:      c.kp.Sequence(),
			Dist:    c.dist,
			Rho:     c.rho,
			Sims:    copySims(c.sims),
			Psi:     c.psi,
		}
	}
	sr.stats.EstBytes = sr.estimateBytes()
	res.Stats = sr.stats
	return res
}

func (sr *searcher) estimateBytes() int64 {
	const stampBytes = 96 // stamp struct + route node
	const kpBytes = 40    // amortized KP node
	const primeBytes = 96 // hashtable entry
	per := int64(stampBytes + kpBytes + 8*len(sr.req.QW))
	b := int64(sr.stats.StampsCreated)*per + int64(sr.prime.Len())*primeBytes
	if sr.opt.Precompute {
		b += sr.e.distanceSource().Bytes()
	}
	return b
}
