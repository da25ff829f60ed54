package search

import (
	"ikrq/internal/graph"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
)

// findKoE implements KoE_find (Algorithm 6): instead of one-hop topology
// expansion, jump directly to the candidate partitions that can cover query
// keywords the current route has not covered yet (plus the terminal's
// partition), routing to each of their enterable doors along the shortest
// regular route.
func (sr *searcher) findKoE(si *stamp) []*stamp {
	// Pruning Rule 5 gate (line 3).
	if !sr.primeCheck(si.tail(), si.kp, si.dist()) {
		sr.stats.PrunedRule5++
		return nil
	}

	targets := sr.koeTargets(si)
	if len(targets) == 0 {
		return nil
	}

	seeds := sr.ov.seeds(sr.e.pf, sr.koeSeeds(si))
	costs := sr.costsFor(si)
	// The expansion reads its shortest paths from at most one paused run
	// from the stamp under costs: plain KoE every path, KoE* the start
	// stamp's and every recompute, while static paths come from the
	// backends. koePath starts it on the searcher's workspace at the first
	// path it needs, and it dies with this expansion: connect's
	// completions reuse the workspace only after find has returned.
	sr.koeRun = nil
	// The stamp's tail state: the source of KoE* static paths and of the
	// backend-bound pre-path gate (NoState for the start stamp).
	from := graph.NoState
	if si.tail() != model.NoDoor {
		from = sr.e.pf.StateOf(si.tail(), si.v)
	}
	es := sr.esBuf[:0]
	for _, vj := range targets {
		// Pruning Rule 3 (lines 9–10): remove hopeless partitions from the
		// global set P for the rest of the query.
		if !sr.opt.DisableDistancePruning {
			bound := sr.partitionBound(vj)
			if bound > sr.cap {
				sr.keyAlive.remove(vj)
				sr.stats.PrunedRule3++
				continue
			}
			// Distance constraint check (line 11): continuing from the
			// current position through vj and on to pt must fit in Δ. The
			// start stamp's position is ps, so its via bound is Rule 3's.
			if si.tail() != model.NoDoor {
				bound = sr.viaBound(si.tail(), vj)
			}
			if si.dist()+bound > sr.cap {
				sr.stats.PrunedDelta++
				continue
			}
		}
		for _, dl := range sr.e.s.Partition(vj).EnterDoors() {
			// Pruning Rule 2 applies to the target door as in ToE.
			if !sr.screenDoor(dl) {
				continue
			}
			target := sr.e.pf.StateOf(dl, vj)
			if target == graph.NoState {
				continue
			}
			// KoE* backend bound: rem lower-bounds the distance still to
			// walk after reaching the target, and the backend's Dist
			// lower-bounds the jump itself. Targets that cannot fit in the
			// cap even under these optimistic bounds are dropped before path
			// recovery — the expensive part of a KoE* expansion — and rem
			// then tightens Rules 1 and 4 below, so hopeless stamps never
			// enter the queue at all. koePath tests the bound once more
			// with the exact static jump before it pays for a recompute.
			rem := 0.0
			if sr.bbSrc != nil {
				rem = sr.backendRemaining(target)
				jump := rem
				if from != graph.NoState && from != target {
					jump += sr.bbSrc.Dist(from, target)
				}
				if si.dist()+jump > sr.cap {
					sr.stats.PrunedBackend++
					continue
				}
			}
			hops, ok := sr.koePath(si, from, seeds, target, costs, rem)
			if !ok || len(hops) == 0 {
				continue
			}
			sj := sr.spliceStamp(si, hops)
			if sj == nil {
				continue
			}
			// Plain distance constraint on the realized route.
			if sj.dist() > sr.cap {
				sr.stats.PrunedDelta++
				continue
			}
			distLB := sj.dist() + sr.lbToPt(dl)
			if d := sj.dist() + rem; d > distLB {
				distLB = d
			}
			// Pruning Rule 1 (lines 15–16).
			if !sr.opt.DisableDistancePruning && distLB > sr.cap {
				sr.stats.PrunedRule1++
				continue
			}
			// Pruning Rule 4 (lines 17–18).
			if !sr.opt.DisableKBound && psiUpperBound(sr.req.Alpha, distLB, sr.req.Delta)+sr.gamma <= sr.top.kbound() {
				sr.stats.PrunedRule4++
				continue
			}
			sr.primeUpdate(sj.tail(), sj.kp, sj.dist())
			es = append(es, sj)
		}
	}
	sr.esBuf = es // adopt growth; run() consumes es before the next find
	return es
}

// koeTargets builds P′ (lines 4–7): the live key partitions minus those
// whose keywords the route already covers, keeping the terminal partition
// reachable at all times. For the initial stamp no partition is removed
// (line 6's dk ≠ ps condition).
func (sr *searcher) koeTargets(si *stamp) []model.PartitionID {
	removed := sr.koeRemoved
	removed.reset(sr.e.s.NumPartitions()) // O(1): one epoch bump per expansion
	if si.tail() != model.NoDoor {
		for kw := 0; kw < sr.q.Len(); kw++ {
			if !keyword.KeywordCovered(si.sims, kw) {
				continue
			}
			for _, cand := range sr.q.Sets[kw].Entries {
				for _, v := range sr.e.x.I2P(cand.Word) {
					removed.add(v)
				}
			}
		}
	}
	out := sr.koeTargetBuf[:0]
	for _, v := range sr.keyParts {
		if !sr.keyAlive.contains(v) {
			continue
		}
		if removed.contains(v) && v != sr.hostPt {
			continue
		}
		// Never route "to" the partition the stamp is already in: a jump
		// that leaves and re-enters it keeps the same key-partition
		// sequence and is therefore dominated.
		if v == si.v {
			continue
		}
		out = append(out, v)
	}
	sr.koeTargetBuf = out
	return out
}

// koeSeeds returns the Dijkstra seeds for continuing the stamp's route,
// built into the searcher's pooled seed buffer.
func (sr *searcher) koeSeeds(si *stamp) []graph.Seed {
	if si.tail() == model.NoDoor {
		sr.seedBuf = sr.e.pf.AppendSeedsFromPointIn(sr.seedBuf[:0], sr.req.Ps, sr.hostPs)
	} else {
		sr.seedBuf = append(sr.seedBuf[:0], graph.Seed{State: sr.e.pf.StateOf(si.tail(), si.v)})
	}
	return sr.seedBuf
}

// koePath finds the shortest regular hop sequence from stamp si (tail
// state from, seeds) to the target state. KoE* splices the static shortest
// path first and recomputes only when the static path collides with the
// route's doors (Section V-A3) or when the conditions overlay invalidates
// it — a closed or penalized door on the path voids its optimality, so the
// tail is recomputed under the full cost model. Recomputes, the start
// stamp's paths (it has no tail state, so no static path) and every plain
// KoE path read the expansion's paused run, started here on first use.
// Every branch builds the hop sequence into per-query pooled storage (the
// searcher's hop buffer); the caller consumes it before the next path is
// requested.
//
// rem is findKoE's backend lower bound on the walk after the target (0
// without a backend), and every route through the target is at least
// si.dist() + (rem + d) long, d the jump's length — a target with that sum
// over the cap yields no stamp: Rule 1 (or the plain Δ check, when rem is 0)
// would drop whatever its path spliced into (DESIGN.md §12). Two tests use
// it. A rejected static path still settled the exact static distance d of
// the jump, and a recompute can only be longer — route doors are blocked,
// overlay penalties only add — so a target over the cap with it is dropped
// before the recompute. And a read of the paused run stops at the cap: it
// pauses once it settles a state that far, and drops the target unread.
// Both count as backend-bound prunes, or as Δ prunes without a backend. The
// distance-pruning ablation runs without either, like Rules 1–3.
func (sr *searcher) koePath(si *stamp, from graph.StateID, seeds []graph.Seed, target graph.StateID, costs graph.Costs, rem float64) ([]graph.Hop, bool) {
	stop := graph.NoStop
	if !sr.opt.DisableDistancePruning {
		stop = graph.StopAt(si.dist(), rem, sr.cap)
	}
	if sr.opt.Precompute && from != graph.NoState {
		if from == target {
			return nil, false
		}
		hops, d, ok := sr.staticPathIfAllowed(from, target, costs)
		if ok {
			return hops, true
		}
		if sr.bbSrc != nil && stop.Beyond(d) {
			sr.stats.PrunedBackend++
			return nil, false
		}
		sr.stats.Recomputations++
	}
	if sr.koeRun == nil {
		sr.koeRun = sr.e.pf.LazyTreeWS(sr.ws, seeds, costs)
	}
	hops, ok, beyond := sr.koeRun.AppendPathWithin(sr.hopBuf[:0], target, stop)
	sr.hopBuf = hops[:0]
	if beyond {
		if sr.bbSrc != nil {
			sr.stats.PrunedBackend++
		} else {
			sr.stats.PrunedDelta++
		}
	}
	return hops, ok
}

// staticPathIfAllowed resolves the static shortest path from the stamp
// tail and its static distance d, ok only when no door on it is blocked or
// delayed under costs (otherwise the caller recomputes under the full cost
// model). d is exact either way: +Inf when the target is statically
// unreachable. The KoE* backend stores no paths: one lazy static tree per
// stamp tail serves every expansion target, settled only as far as the
// farthest target actually requested, and the cache dies with the
// searcher's query. The tree lives in its own workspace so the expansion's
// paused run in sr.ws cannot clobber it, and stamps that share a tail
// share it.
func (sr *searcher) staticPathIfAllowed(from, target graph.StateID, costs graph.Costs) ([]graph.Hop, float64, bool) {
	if sr.staticWS == nil {
		sr.staticWS = graph.NewWorkspace()
	}
	if sr.staticTree == nil || sr.staticSrc != from {
		sr.staticTree = sr.e.pf.LazyTreeWS(sr.staticWS, []graph.Seed{{State: from}}, graph.Costs{})
		sr.staticSrc = from
	}
	hops, d, ok := sr.staticTree.AppendPathIfAllowed(sr.hopBuf[:0], target, costs)
	sr.hopBuf = hops[:0]
	if !ok {
		d = sr.staticTree.Dist(target) // settled (or drained) by the call above
	}
	return hops, d, ok
}
