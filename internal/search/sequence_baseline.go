package search

// ExhaustiveSequence is the brute-force oracle the sequence planner is
// gated against, in the mold of the Table III Exhaustive baseline: it
// enumerates the full cross product of per-leg candidate waypoints, chains
// every plan's shortest-path stages independently (no shared-prefix reuse,
// no Δ pruning, no beam), and ranks with the planner's exact comparator.
// Because both sides build stage seeds in the same label order and read the
// same settled Dijkstra distances, every surviving plan's distance — and
// with it the ranked Routes slice — is byte-identical to the planner's
// (DESIGN.md §14). Its finish stages settle every terminal entry state,
// where the planner's stop at their answer (the kernel's point stop), so
// the gate checks that stop too. The baseline also keeps the reference
// route reconstruction, buildRoute, which re-runs a plan's stages where the
// planner reads its stage records back.

import (
	"context"
	"fmt"
	"math"
	"time"

	"ikrq/internal/graph"
	"ikrq/internal/model"
)

// maxSequencePlans bounds the baseline's cross-product enumeration; it
// exists to fail loudly on adversarial candidate fan-outs rather than hang.
const maxSequencePlans = 1 << 20

// ExhaustiveSequence evaluates a sequence request by exhaustive plan
// enumeration. Beam is ignored (the baseline is always exact); the result
// cache is bypassed.
func (e *Engine) ExhaustiveSequence(req SequenceRequest) (*SequenceResult, error) {
	return e.ExhaustiveSequenceContext(context.Background(), req)
}

// ExhaustiveSequenceContext is ExhaustiveSequence under a context, polled
// once per enumerated plan.
func (e *Engine) ExhaustiveSequenceContext(ctx context.Context, req SequenceRequest) (*SequenceResult, error) {
	if err := e.ValidateSequence(req); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &SequenceResult{}
	c := newSeqChain(e, &req, &res.Stats, new(execScratch))

	total := 1
	for j := range c.cands {
		if len(c.cands[j]) == 0 {
			total = 0
			break
		}
		if total *= len(c.cands[j]); total > maxSequencePlans {
			return nil, fmt.Errorf("search: exhaustive sequence baseline would enumerate more than %d plans", maxSequencePlans)
		}
	}

	var plans []seqPlan
	waypoints := make([]model.PartitionID, len(req.Legs))
	var seedBuf []graph.Seed
	var targetBuf []graph.StateID
	var rec func(j int, rhoSum float64) error
	rec = func(j int, rhoSum float64) error {
		if j == len(req.Legs) {
			if err := ctx.Err(); err != nil {
				return err
			}
			dist, ok := c.evalPlan(waypoints, &seedBuf, &targetBuf)
			if !ok || dist > req.Delta {
				return nil
			}
			plans = append(plans, seqPlan{
				waypoints: append([]model.PartitionID(nil), waypoints...),
				rhoSum:    rhoSum,
				dist:      dist,
				psi:       score(req.Alpha, rhoSum, c.maxRho, dist, req.Delta),
			})
			return nil
		}
		for i, v := range c.cands[j] {
			waypoints[j] = v
			if err := rec(j+1, rhoSum+c.legRho[j][i]); err != nil {
				return err
			}
		}
		return nil
	}
	if total > 0 {
		if err := rec(0, 0); err != nil {
			return nil, err
		}
	}
	res.Stats.Plans = len(plans)
	rankSequencePlans(plans)
	if len(plans) > req.K {
		plans = plans[:req.K]
	}
	for i := range plans {
		res.Routes = append(res.Routes, c.buildRoute(&plans[i]))
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// evalPlan chains one full plan's stages with the shared primitives: seeds
// from the start point (overlay-adjusted) or the previous waypoint's labels,
// targets the next waypoint's entry states, labels extracted in EnterDoors
// order — float-for-float the computation the planner performs with its
// shared prefixes and union target sets, since settled Dijkstra distances do
// not depend on the target set or on sibling targets.
func (c *seqChain) evalPlan(waypoints []model.PartitionID, seedBuf *[]graph.Seed, targetBuf *[]graph.StateID) (float64, bool) {
	inPlace := true
	var labels []seqLabel
	for _, v := range waypoints {
		if inPlace && v == c.hostPs {
			continue
		}
		if inPlace {
			*seedBuf = c.startSeeds(*seedBuf)
		} else {
			*seedBuf = labelSeeds(*seedBuf, labels)
		}
		*targetBuf = c.appendEntryStates((*targetBuf)[:0], v)
		tree := c.e.pf.ShortestTreeToStatesWS(c.ws, *seedBuf, *targetBuf, nil, c.costs)
		c.stats.Dijkstras++
		labels = c.extractLabels(tree, v, nil)
		if len(labels) == 0 {
			return 0, false
		}
		inPlace = false
	}
	if inPlace {
		*seedBuf = c.startSeeds(*seedBuf)
	} else {
		*seedBuf = labelSeeds(*seedBuf, labels)
	}
	dist, _, _ := c.finish(c.ws, *seedBuf, inPlace, false)
	return dist, !math.IsInf(dist, 1)
}

// buildRoute is the reference route reconstruction: it re-runs a ranked
// plan's chained stages, each on its own workspace so every stage's
// borrowed Tree stays readable, then backtracks the winning terminal entry
// state through each stage's seed attribution (Tree.Seed → previous stage's
// label index) and emits hops forward. The planner's recordedHops must
// reproduce its walk hop for hop.
func (c *seqChain) buildRoute(p *seqPlan) SequenceRoute {
	type seqStage struct {
		tree   *graph.Tree
		labels []seqLabel
	}
	var stages []seqStage
	inPlace := true
	var labels []seqLabel
	for _, v := range p.waypoints {
		if inPlace && v == c.hostPs {
			continue
		}
		var seeds []graph.Seed
		if inPlace {
			seeds = c.startSeeds(nil)
		} else {
			seeds = labelSeeds(nil, labels)
		}
		targets := c.appendEntryStates(nil, v)
		tree := c.e.pf.ShortestTreeToStatesWS(graph.NewWorkspace(), seeds, targets, nil, c.costs)
		c.stats.Dijkstras++
		labels = c.extractLabels(tree, v, nil)
		stages = append(stages, seqStage{tree: tree, labels: labels})
		inPlace = false
	}
	var seeds []graph.Seed
	if inPlace {
		seeds = c.startSeeds(nil)
	} else {
		seeds = labelSeeds(nil, labels)
	}
	_, best, ftree := c.finish(graph.NewWorkspace(), seeds, inPlace, false)
	if best == graph.NoState {
		// The direct ps→pt segment won (possible only when every leg was
		// satisfied in place and both points share a partition): no doors.
		return c.route(p, nil)
	}
	// Backtrack: chosen[i] is the entry state the walk settles at the end of
	// stage i; stage i's seed index points into stage i-1's label slice.
	chosen := make([]graph.StateID, len(stages)+1)
	chosen[len(stages)] = best
	cur := best
	for i := len(stages); i >= 1; i-- {
		var t *graph.Tree
		if i == len(stages) {
			t = ftree
		} else {
			t = stages[i].tree
		}
		si := t.Seed(cur)
		cur = stages[i-1].labels[si].state
		chosen[i-1] = cur
	}
	var hops []graph.Hop
	for i := range stages {
		hops, _ = stages[i].tree.AppendPathTo(hops, chosen[i])
	}
	hops, _ = ftree.AppendPathTo(hops, best)
	return c.route(p, hops)
}
