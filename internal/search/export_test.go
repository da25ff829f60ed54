package search

import (
	"slices"

	"ikrq/internal/graph"
	"ikrq/internal/model"
)

// ReferenceSequenceRoute re-derives a sequence route from its waypoints
// alone: Σρ from the leg candidate tables, the distance by chaining the
// plan's stages as the exhaustive baseline does, and the door walk by the
// baseline's re-running reconstruction. ok is false when the waypoints are
// not a feasible plan (a waypoint is no candidate of its leg, or some stage
// cannot reach it).
func ReferenceSequenceRoute(e *Engine, req SequenceRequest, waypoints []model.PartitionID) (SequenceRoute, bool) {
	c := newSeqChain(e, &req, &SequenceStats{}, graph.NewWorkspace())
	if len(waypoints) != len(c.cands) {
		return SequenceRoute{}, false
	}
	rho := 0.0
	for j, v := range waypoints {
		i := slices.Index(c.cands[j], v)
		if i < 0 {
			return SequenceRoute{}, false
		}
		rho += c.legRho[j][i]
	}
	dist, ok := c.evalPlan(waypoints, new([]graph.Seed), new([]graph.StateID))
	if !ok {
		return SequenceRoute{}, false
	}
	p := seqPlan{
		waypoints: waypoints,
		rhoSum:    rho,
		dist:      dist,
		psi:       score(req.Alpha, rho, c.maxRho, dist, req.Delta),
	}
	return c.buildRoute(&p), true
}
