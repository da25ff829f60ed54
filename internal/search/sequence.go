package search

// Sequence queries: IKRQ-Seq(ps, pt, Δ, L1..Ln, k) routes from ps to pt
// visiting one key partition per ordered leg, each leg a keyword list under
// the same candidate semantics as a route query (Definition 4, τ-thresholded
// candidate i-words). The planner chains shortest-path stages over the
// layered waypoint graph — one targeted multi-source Dijkstra per frontier
// prefix, keeping every entry-state label of the reached waypoint so the
// stitched distance is the exact layered-graph shortest walk — prunes
// Δ-infeasible prefixes with the admissible DistanceSource bound, and is
// gated byte-identical against the exhaustive cross-product baseline in
// sequence_baseline.go (see DESIGN.md §14).
//
// Sequence routes are scored by the Equation 1 shape lifted to legs:
//
//	ψ(R) = α · Σρj / Σmaxρj + (1−α) · (Δ−δ(R))/Δ
//
// where ρj is the Definition 6 relevance of leg j's keywords against its
// chosen waypoint and maxρj = |QWj|+1. Unlike single-route search, sequence
// walks are not door-regular across stages: revisiting a hallway door
// between stops is the natural multi-stop behavior, so only the Conditions
// overlay (closures, delays) constrains the chained shortest paths.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"ikrq/internal/geom"
	"ikrq/internal/graph"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
)

// MaxSequenceLegs bounds the number of legs a sequence request may carry —
// a wire-level sanity cap, not an algorithmic limit.
const MaxSequenceLegs = 8

// maxSequenceFrontier bounds the exact planner's per-layer prefix frontier;
// past it the request must set Beam. The cross-product baseline enumerates
// under the same ceiling.
const maxSequenceFrontier = 1 << 16

// SequenceLeg is one ordered stop of a sequence query: a keyword list whose
// candidate partitions (any partition coverable under τ) are the admissible
// waypoints for this leg.
type SequenceLeg struct {
	QW []string
}

// SequenceRequest is one sequence query. The zero Beam runs the exact
// planner; Beam > 0 keeps only the Beam best prefixes per layer (ranked by
// an optimistic ψ bound), trading exactness for bounded work on adversarial
// candidate fan-outs — results then carry Stats.Truncated.
type SequenceRequest struct {
	Ps, Pt geom.Point
	Delta  float64
	Legs   []SequenceLeg
	K      int
	Alpha  float64
	Tau    float64
	Beam   int

	// Conditions overlays live venue state exactly as on Request: closures
	// remove doors from every chained stage, delays add per-traversal
	// penalties.
	Conditions *model.Conditions
}

// SequenceRoute is one returned sequence route.
type SequenceRoute struct {
	// Waypoints[j] is the key partition chosen for leg j.
	Waypoints []model.PartitionID
	// Doors / Entered are the full stitched door walk from ps to pt, in the
	// same encoding as Route.
	Doors   []model.DoorID
	Entered []model.PartitionID
	// LegSims[j] are leg j's per-keyword best similarities against its
	// waypoint; LegRho[j] the leg relevance ρj.
	LegSims [][]float64
	LegRho  []float64
	// Rho is Σρj, Dist the stitched walk distance δ(R), Psi the score.
	Rho  float64
	Dist float64
	Psi  float64
}

// SequenceStats reports the cost of a sequence planning run.
type SequenceStats struct {
	Elapsed time.Duration

	// Dijkstras counts chained shortest-path stages run, finish stages only
	// for the final prefixes the planner finished; Prefixes the plan
	// prefixes materialized across layers.
	Dijkstras int
	Prefixes  int

	// PrunedDelta counts prefixes discarded by the admissible Δ bound and
	// finished plans past Δ; BeamDropped counts prefixes cut by Beam.
	PrunedDelta int
	BeamDropped int

	// Plans is the number of feasible complete plans ranked (before top-k
	// truncation). The planner stops finishing final prefixes once the top
	// k are decided, so Plans counts only the plans it finished, which can
	// be fewer than the feasible plans the query has. Truncated is set when
	// Beam dropped prefixes, so the result may not be exact.
	Plans     int
	Truncated bool
}

// SequenceResult is the outcome of one sequence query.
type SequenceResult struct {
	Routes []SequenceRoute
	Stats  SequenceStats
}

// ValidateSequence reports the first problem with a sequence request, or
// nil: the checks every query shares (see Validate), then the beam and the
// legs.
func (e *Engine) ValidateSequence(req SequenceRequest) error {
	if err := e.validateQuery(req.Ps, req.Pt, req.Delta, req.K, req.Alpha, req.Tau, req.Conditions); err != nil {
		return err
	}
	if req.Beam < 0 {
		return errors.New("search: beam must be ≥ 0")
	}
	if len(req.Legs) == 0 {
		return errors.New("search: a sequence query needs at least one leg")
	}
	if len(req.Legs) > MaxSequenceLegs {
		return fmt.Errorf("search: at most %d sequence legs (got %d)", MaxSequenceLegs, len(req.Legs))
	}
	for j, leg := range req.Legs {
		if len(leg.QW) == 0 {
			return fmt.Errorf("search: sequence leg %d has no keywords", j)
		}
	}
	return nil
}

// SearchSequence plans one sequence query.
func (e *Engine) SearchSequence(req SequenceRequest) (*SequenceResult, error) {
	return e.SearchSequenceContext(context.Background(), req)
}

// SearchSequenceContext is SearchSequence under a context: cancellation
// aborts between chained stages. It runs on the same execution path as
// SearchContext — pooled scratch, the executions counter, and on a
// cache-enabled engine the same per-venue result cache, keyed by
// fingerprintSequence; cache-served results are shared and must be treated
// as read-only.
func (e *Engine) SearchSequenceContext(ctx context.Context, req SequenceRequest) (*SequenceResult, error) {
	if err := e.ValidateSequence(req); err != nil {
		return nil, err
	}
	return execute(ctx, e,
		func() string { return fingerprintSequence(&req) },
		func(sc *execScratch) (*SequenceResult, error) { return e.sequenceUncached(ctx, sc, req) })
}

// seqLabel is one position label of the layered DP: standing at an entry
// state of the current waypoint, dist the exact chained walk distance from
// ps to that state. The planner also records how its stage reached the
// state: from is the labels-arena index of the label whose seed the stage's
// Dijkstra attributed it to (Tree.Seed; -1 for a start-point seed), hops the
// stage's door segment from that seed (Tree.AppendPathTo). Walking the from
// links back rebuilds a route without re-running any stage.
type seqLabel struct {
	state graph.StateID
	from  int32
	dist  float64
	hops  seqSpan
}

// seqSpan is a half-open range [lo, hi) into one of seqChain's per-query
// arenas.
type seqSpan struct{ lo, hi int32 }

// seqPrefix is one frontier element of the layered planner: the waypoints
// chosen for the first len(waypoints) legs, the accumulated Σρj, and the
// position — either still at ps (inPlace: every chosen waypoint was the
// start partition, satisfied without moving) or the full entry-state label
// set of the last waypoint, a span of the labels arena.
type seqPrefix struct {
	waypoints []model.PartitionID
	rhoSum    float64
	inPlace   bool
	labels    seqSpan
	// bound is an admissible lower bound on any completion's total distance
	// (0 for inPlace prefixes); the beam ranks on it.
	bound float64
}

// seqPlan is one feasible complete plan awaiting ranking. from and hops
// record the finish stage the way a label records its stage: the label that
// seeded the best terminal state (-1 when the walk left from ps or the
// direct segment won) and the segment to that state.
type seqPlan struct {
	waypoints []model.PartitionID
	rhoSum    float64
	dist      float64
	psi       float64
	from      int32
	hops      seqSpan
}

// seqChain is the machinery shared by the planner and the exhaustive
// baseline: compiled leg queries, candidate tables, the overlay cost model,
// and the chained-stage primitives whose float arithmetic both sides must
// share exactly for the byte-identity gate.
type seqChain struct {
	e   *Engine
	req *SequenceRequest

	hostPs, hostPt model.PartitionID

	legQ    []*keyword.Query
	cands   [][]model.PartitionID // sorted candidate waypoints per leg
	legRho  [][]float64           // ρj per candidate, parallel to cands
	maxRho  float64               // Σ (|QWj|+1)
	sufRho  []float64             // sufRho[j] = Σ_{i≥j} max candidate ρi
	ptLegs  []float64             // |door, pt| per terminal entry state
	ptState []graph.StateID

	ov    overlay     // the request's Conditions as dense door sets
	costs graph.Costs // every stage's cost model: ov alone

	ws    *graph.Workspace // stage workspace for planning/evaluation
	stats *SequenceStats

	// rem memoises labelBound's remainder per state for the query (pooled
	// scratch, epoch-stamped): every prefix that reaches a waypoint has
	// the same entry states.
	rem *memo[graph.StateID, float64]

	// labels and hops are the planner's per-query record arenas: the entry
	// labels of every kept prefix, and the door segment of every recorded
	// label and plan. Both only grow, so spans and from links stay valid.
	labels []seqLabel
	hops   []graph.Hop
}

// newSeqChain prepares a sequence request on a scratch bundle, whose kernel
// workspace runs the chain's stages and whose overlay backs the chain's
// door sets. The planner passes pooled scratch; the baseline a fresh one.
func newSeqChain(e *Engine, req *SequenceRequest, stats *SequenceStats, sc *execScratch) *seqChain {
	if sc.ws == nil {
		sc.ws = graph.NewWorkspace()
	}
	sc.ov.load(req.Conditions, e.s.NumDoors())
	sc.seqRem.reset(e.pf.NumStates())
	c := &seqChain{
		e:      e,
		req:    req,
		hostPs: e.s.HostPartition(req.Ps),
		hostPt: e.s.HostPartition(req.Pt),
		ov:     sc.ov,
		ws:     sc.ws,
		stats:  stats,
		rem:    &sc.seqRem,
	}
	c.costs = c.ov.costs(nil)
	c.legQ = make([]*keyword.Query, len(req.Legs))
	c.cands = make([][]model.PartitionID, len(req.Legs))
	c.legRho = make([][]float64, len(req.Legs))
	for j, leg := range req.Legs {
		q := e.qcache.Get(leg.QW, req.Tau)
		c.legQ[j] = q
		c.cands[j] = q.KeyPartitions()
		c.maxRho += q.MaxRelevance()
		rhos := make([]float64, len(c.cands[j]))
		sims := make([]float64, q.Len())
		for i, v := range c.cands[j] {
			clear(sims)
			if w := e.x.P2I(v); w != keyword.NoIWord {
				q.Absorb(sims, w)
			}
			rhos[i] = keyword.Relevance(sims)
		}
		c.legRho[j] = rhos
	}
	c.sufRho = make([]float64, len(req.Legs)+1)
	for j := len(req.Legs) - 1; j >= 0; j-- {
		best := 0.0
		for _, r := range c.legRho[j] {
			if r > best {
				best = r
			}
		}
		c.sufRho[j] = c.sufRho[j+1] + best
	}
	for _, d := range e.s.Partition(c.hostPt).EnterDoors() {
		st := e.pf.StateOf(d, c.hostPt)
		if st == graph.NoState {
			continue
		}
		c.ptState = append(c.ptState, st)
		c.ptLegs = append(c.ptLegs, e.s.Door(d).Pos.Dist(req.Pt))
	}
	return c
}

// startSeeds builds the overlay-adjusted Dijkstra seeds for stages leaving
// the start point: one per leave-door state of ps's host partition, closed
// seeds dropped and each surviving seed paying its door's delay (the seed
// passes the door as the walk's first hop).
func (c *seqChain) startSeeds(dst []graph.Seed) []graph.Seed {
	return c.ov.seeds(c.e.pf, c.e.pf.AppendSeedsFromPointIn(dst[:0], c.req.Ps, c.hostPs))
}

// labelSeeds turns a label set into continuation seeds, in label order (so
// Tree.Seed indexes back into the label slice). EmitHop is false: the entry
// door was emitted — and its delay paid — by the stage that reached it.
func labelSeeds(dst []graph.Seed, labels []seqLabel) []graph.Seed {
	dst = dst[:0]
	for _, l := range labels {
		dst = append(dst, graph.Seed{State: l.state, Cost: l.dist})
	}
	return dst
}

// prefixSeeds builds the seeds of a stage extending p: the start seeds while
// p is still at ps, otherwise p's labels.
func (c *seqChain) prefixSeeds(dst []graph.Seed, p *seqPrefix) []graph.Seed {
	if p.inPlace {
		return c.startSeeds(dst)
	}
	return labelSeeds(dst, c.labels[p.labels.lo:p.labels.hi])
}

// appendEntryStates appends partition v's entry states in EnterDoors order
// — the canonical label order both the planner and the baseline extract in.
func (c *seqChain) appendEntryStates(dst []graph.StateID, v model.PartitionID) []graph.StateID {
	for _, d := range c.e.s.Partition(v).EnterDoors() {
		if st := c.e.pf.StateOf(d, v); st != graph.NoState {
			dst = append(dst, st)
		}
	}
	return dst
}

// extractLabels reads v's settled entry-state labels off a stage tree, in
// EnterDoors order. Unreached states are dropped; an empty return means v is
// unreachable from the stage's seeds under the overlay.
func (c *seqChain) extractLabels(t *graph.Tree, v model.PartitionID, dst []seqLabel) []seqLabel {
	for _, d := range c.e.s.Partition(v).EnterDoors() {
		st := c.e.pf.StateOf(d, v)
		if st == graph.NoState {
			continue
		}
		if dd := t.Dist(st); !math.IsInf(dd, 1) {
			dst = append(dst, seqLabel{state: st, dist: dd})
		}
	}
	return dst
}

// finish completes a position to pt: the chained stage to the terminal
// partition's entry states plus the exact |door, pt| legs, with the direct
// in-partition segment when the walk never left ps's host partition. With
// pointStop the stage is a point search over those legs and stops once no
// unsettled entry state can win (the planner); without, it settles every
// entry state (the exhaustive baseline, so that the planner-vs-baseline
// gate checks the stop). Tree.Nearest's strict < keeps ties deterministic
// (direct beats routed, earlier EnterDoors entries beat later), matching
// ShortestToPointWS. Returns +Inf when pt is unreachable.
func (c *seqChain) finish(ws *graph.Workspace, seeds []graph.Seed, inPlace, pointStop bool) (dist float64, best graph.StateID, tree *graph.Tree) {
	var legs []float64
	if pointStop {
		legs = c.ptLegs
	}
	tree = c.e.pf.ShortestTreeToStatesWS(ws, seeds, c.ptState, legs, c.costs)
	c.stats.Dijkstras++
	dist = math.Inf(1)
	if inPlace && c.hostPt == c.hostPs {
		dist = c.req.Ps.Dist(c.req.Pt)
	}
	best, dist = tree.Nearest(c.ptState, c.ptLegs, dist)
	return dist, best, tree
}

// bound lower-bounds the distance of any completion of a label set: each
// label's exact chained distance plus the static DistanceSource bound to the
// terminal entry states (admissible — future legs only add walk, closures
// only remove edges, delays only increase costs; see backendRemaining).
func (c *seqChain) labelBound(src graph.DistanceSource, labels []seqLabel) float64 {
	best := math.Inf(1)
	for _, l := range labels {
		if b := l.dist + c.remaining(src, l.state); b < best {
			best = b
		}
	}
	return best
}

// remaining is labelBound's static bound from state s to pt, min over the
// terminal entry states of Dist + the final leg. It depends on s alone
// within a query, so it is computed once per state (the same operands in
// the same order, so bit-identical to recomputing it).
func (c *seqChain) remaining(src graph.DistanceSource, s graph.StateID) float64 {
	if r, ok := c.rem.get(s); ok {
		return r
	}
	r := math.Inf(1)
	for i, st := range c.ptState {
		if d := src.Dist(s, st) + c.ptLegs[i]; d < r {
			r = d
		}
	}
	c.rem.put(s, r)
	return r
}

// record reports how a stage extending p reached state st: the labels-arena
// index of the label that seeded it (-1 when p is still at ps) and its door
// segment, appended to the hops arena. st must be settled in t.
func (c *seqChain) record(t *graph.Tree, p *seqPrefix, st graph.StateID) (from int32, hops seqSpan) {
	from = -1
	if !p.inPlace {
		from = p.labels.lo + int32(t.Seed(st))
	}
	lo := len(c.hops)
	c.hops, _ = t.AppendPathTo(c.hops, st)
	return from, seqSpan{int32(lo), int32(len(c.hops))}
}

// sequenceUncached runs the layered beam-stitching planner on a scratch
// bundle. Every kept label and feasible plan records its stage's seed
// attribution and door segment as the stage runs, so the top-k routes are
// assembled from those records: no stage runs after ranking.
func (e *Engine) sequenceUncached(ctx context.Context, sc *execScratch, req SequenceRequest) (*SequenceResult, error) {
	start := time.Now()
	res := &SequenceResult{}
	c := newSeqChain(e, &req, &res.Stats, sc)

	// The Δ bound needs the KoE* distance backend; like a first KoE* query,
	// a first sequence query on a fresh engine pays the lazy build.
	src := e.distanceSource()

	frontier := []seqPrefix{{inPlace: true}}
	var seedBuf []graph.Seed
	var targetBuf []graph.StateID
	for j := range req.Legs {
		next := frontier[:0:0]
		for _, p := range frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// One targeted Dijkstra per prefix serves every candidate of the
			// next leg: the union of their entry states is the target set.
			var tree *graph.Tree
			targetBuf = targetBuf[:0]
			for _, v := range c.cands[j] {
				if p.inPlace && v == c.hostPs {
					continue // satisfied in place, no walk needed
				}
				targetBuf = c.appendEntryStates(targetBuf, v)
			}
			if len(targetBuf) > 0 {
				seedBuf = c.prefixSeeds(seedBuf, &p)
				tree = e.pf.ShortestTreeToStatesWS(c.ws, seedBuf, targetBuf, nil, c.costs)
				res.Stats.Dijkstras++
			}
			for i, v := range c.cands[j] {
				rho := c.legRho[j][i]
				if p.inPlace && v == c.hostPs {
					// Still at ps: the start partition satisfies the leg
					// without moving, and the at-point position dominates any
					// walk out and back in.
					next = append(next, seqPrefix{
						waypoints: append(slices.Clip(p.waypoints), v),
						rhoSum:    p.rhoSum + rho,
						inPlace:   true,
					})
					res.Stats.Prefixes++
					continue
				}
				lo := len(c.labels)
				c.labels = c.extractLabels(tree, v, c.labels)
				labels := c.labels[lo:]
				if len(labels) == 0 {
					continue // unreachable waypoint
				}
				// The bound sums oracle labels in another order than the
				// stages sum the walk, so it keeps graph.SumSlack of headroom
				// over Δ: a plan that ends exactly at Δ survives.
				bound := c.labelBound(src, labels)
				if bound > req.Delta+req.Delta*graph.SumSlack {
					c.labels = c.labels[:lo]
					res.Stats.PrunedDelta++
					continue
				}
				for k := range labels {
					labels[k].from, labels[k].hops = c.record(tree, &p, labels[k].state)
				}
				next = append(next, seqPrefix{
					waypoints: append(slices.Clip(p.waypoints), v),
					rhoSum:    p.rhoSum + rho,
					labels:    seqSpan{int32(lo), int32(len(c.labels))},
					bound:     bound,
				})
				res.Stats.Prefixes++
			}
		}
		if req.Beam > 0 && len(next) > req.Beam {
			// Rank prefixes by an optimistic ψ: achieved Σρ plus the best
			// possible suffix relevance, spatial term from the admissible
			// distance bound. Ties break on waypoints for determinism.
			opt := func(p *seqPrefix) float64 {
				return score(req.Alpha, p.rhoSum+c.sufRho[j+1], c.maxRho, p.bound, req.Delta)
			}
			sort.Slice(next, func(a, b int) bool {
				oa, ob := opt(&next[a]), opt(&next[b])
				if oa != ob {
					return oa > ob
				}
				return slices.Compare(next[a].waypoints, next[b].waypoints) < 0
			})
			res.Stats.BeamDropped += len(next) - req.Beam
			res.Stats.Truncated = true
			next = next[:req.Beam]
		}
		if len(next) > maxSequenceFrontier {
			return nil, fmt.Errorf("search: sequence frontier exceeds %d prefixes at leg %d; set Beam to bound the plan fan-out",
				maxSequenceFrontier, j+1)
		}
		frontier = next
	}

	// Finish the final prefixes in descending optimistic ψ, and stop at the
	// first one that cannot reach the k-th plan ranked so far: its plan
	// would rank below it, and so would every later prefix's.
	slices.SortStableFunc(frontier, func(a, b seqPrefix) int {
		return cmp.Compare(c.optimisticPsi(&b), c.optimisticPsi(&a))
	})
	plans := make([]seqPlan, 0, len(frontier))
	for _, p := range frontier {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(plans) >= req.K && c.optimisticPsi(&p) < plans[req.K-1].psi {
			break
		}
		seedBuf = c.prefixSeeds(seedBuf, &p)
		dist, best, tree := c.finish(c.ws, seedBuf, p.inPlace, true)
		if dist > req.Delta {
			res.Stats.PrunedDelta++
			continue
		}
		plan := seqPlan{
			waypoints: p.waypoints,
			rhoSum:    p.rhoSum,
			dist:      dist,
			psi:       score(req.Alpha, p.rhoSum, c.maxRho, dist, req.Delta),
			from:      -1,
		}
		if best != graph.NoState {
			plan.from, plan.hops = c.record(tree, &p, best)
		}
		// Insert in rank order, so plans[k-1] is the k-th plan so far.
		at, _ := slices.BinarySearchFunc(plans, plan, comparePlans)
		plans = slices.Insert(plans, at, plan)
	}
	res.Stats.Plans = len(plans)
	if len(plans) > req.K {
		plans = plans[:req.K]
	}
	var hops []graph.Hop
	for i := range plans {
		hops = c.recordedHops(hops[:0], &plans[i])
		res.Routes = append(res.Routes, c.route(&plans[i], hops))
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// optimisticPsi is an upper bound on the ψ of any plan that finishes a
// final prefix: the prefix's Σρ with its admissible distance bound. score
// does not increase with distance, and the bound is lowered by
// graph.SumSlack, since it sums its legs (oracle labels included) in
// another order than the finish stage does and could otherwise exceed the
// finished distance in the last ULP.
func (c *seqChain) optimisticPsi(p *seqPrefix) float64 {
	return score(c.req.Alpha, p.rhoSum, c.maxRho, p.bound-p.bound*graph.SumSlack, c.req.Delta)
}

// comparePlans orders plans by ψ descending, distance ascending, then
// waypoint sequence ascending — a strict total order, since a plan is its
// waypoint sequence. The planner and the exhaustive baseline rank by it.
func comparePlans(a, b seqPlan) int {
	if a.psi != b.psi {
		return cmp.Compare(b.psi, a.psi)
	}
	if a.dist != b.dist {
		return cmp.Compare(a.dist, b.dist)
	}
	return slices.Compare(a.waypoints, b.waypoints)
}

// recordedHops appends a plan's full door walk to dst, assembled from the
// planner's records: the finish segment, then each label's segment along
// the from links back to ps, emitted in walk order.
//
// The records equal what re-running the plan's stages alone would compute.
// A stage's settled prefix does not depend on its target set — the kernel
// pops in a strict (dist, door, part) order and targets only decide when to
// stop — so the union-target stage that extracted a label settles it with
// the same distance, parent chain and seed as a single-waypoint stage from
// the same seeds. By induction over the legs the seeds agree too.
func (c *seqChain) recordedHops(dst []graph.Hop, p *seqPlan) []graph.Hop {
	var buf [MaxSequenceLegs + 1]seqSpan
	segs := append(buf[:0], p.hops)
	for l := p.from; l >= 0; l = c.labels[l].from {
		segs = append(segs, c.labels[l].hops)
	}
	for i := len(segs) - 1; i >= 0; i-- {
		dst = append(dst, c.hops[segs[i].lo:segs[i].hi]...)
	}
	return dst
}

// route materializes a ranked plan with its stitched door walk: per-leg
// similarities and relevances, and the walk in Route's Doors/Entered
// encoding (nil for the zero-door direct segment).
func (c *seqChain) route(p *seqPlan, hops []graph.Hop) SequenceRoute {
	r := SequenceRoute{
		Waypoints: append([]model.PartitionID(nil), p.waypoints...),
		LegSims:   make([][]float64, len(p.waypoints)),
		LegRho:    make([]float64, len(p.waypoints)),
		Rho:       p.rhoSum,
		Dist:      p.dist,
		Psi:       p.psi,
	}
	for j, v := range p.waypoints {
		q := c.legQ[j]
		sims := make([]float64, q.Len())
		if w := c.e.x.P2I(v); w != keyword.NoIWord {
			q.Absorb(sims, w)
		}
		r.LegSims[j] = sims
		r.LegRho[j] = keyword.Relevance(sims)
	}
	if len(hops) == 0 {
		return r
	}
	r.Doors = make([]model.DoorID, len(hops))
	r.Entered = make([]model.PartitionID, len(hops))
	for i, h := range hops {
		r.Doors[i] = h.Door
		r.Entered[i] = h.Part
	}
	return r
}
