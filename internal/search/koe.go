package search

import (
	"ikrq/internal/geom"
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
	// One shortest-path tree from the stamp serves every candidate
	// partition and door (plain KoE); KoE* splices static paths instead and
	// recomputes only on regularity collisions or when the overlay
	// invalidates the static path. The tree lives in the searcher's kernel
	// workspace and dies with this expansion (the next Dijkstra — a KoE*
	// recompute or a shortest-route completion — overwrites it).
	var tree *graph.Tree
	if !sr.opt.Precompute {
		tree = sr.e.pf.ShortestTreeWS(sr.ws, seeds, costs)
	}
	// The stamp's tail state, for the KoE* backend-bound pre-path gate.
	from := graph.NoState
	if sr.bbSrc != nil && si.tail() != model.NoDoor {
		from = sr.e.pf.StateOf(si.tail(), si.v)
	}
	es := sr.esBuf[:0]
	for _, vj := range targets {
		// Pruning Rule 3 (lines 9–10): remove hopeless partitions from the
		// global set P for the rest of the query.
		if !sr.opt.DisableDistancePruning {
			if sr.e.sk.PartitionBound(sr.req.Ps, vj, sr.req.Pt) > sr.cap {
				sr.keyAlive.remove(vj)
				sr.stats.PrunedRule3++
				continue
			}
			// Distance constraint check (line 11): continuing from the
			// current position through vj and on to pt must fit in Δ.
			if si.dist()+sr.e.sk.ViaBound(sr.tailPos(si), vj, sr.req.Pt) > sr.cap {
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
			// enter the queue at all.
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
			hops, ok := sr.koePath(si, seeds, tree, target, costs)
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

// koePath finds the shortest regular hop sequence from the stamp to the
// target state. KoE* splices the static shortest path first and
// recomputes only when the static path collides with the route's doors
// (Section V-A3) or when the conditions overlay invalidates it — a closed
// or penalized door on the path voids its optimality, so the tail is
// recomputed on the fly under the full cost model; plain KoE reads the
// stamp's shortest-path tree.
// All branches build the hop sequence into per-query pooled storage (the
// searcher's hop buffer or the kernel workspace); the caller consumes it
// before the next path is requested.
func (sr *searcher) koePath(si *stamp, seeds []graph.Seed, tree *graph.Tree, target graph.StateID, costs graph.Costs) ([]graph.Hop, bool) {
	if sr.opt.Precompute {
		if si.tail() != model.NoDoor {
			from := sr.e.pf.StateOf(si.tail(), si.v)
			if from != graph.NoState {
				if from == target {
					return nil, false
				}
				hops, ok := sr.staticPathIfAllowed(from, target, costs)
				if ok {
					return hops, true
				}
				sr.stats.Recomputations++
			}
		}
		// Early termination: the recompute settles only the target state
		// instead of exhausting the graph (the KoE* static-tail fallback).
		path, ok := sr.e.pf.ShortestToStateWS(sr.ws, seeds, target, costs)
		if !ok {
			return nil, false
		}
		return path.Hops, true
	}
	hops, ok := tree.AppendPathTo(sr.hopBuf[:0], target)
	sr.hopBuf = hops[:0]
	return hops, ok
}

// staticPathIfAllowed resolves the static shortest path from the stamp
// tail, ok only when no door on it is blocked or delayed under costs
// (otherwise the caller recomputes under the full cost model). Neither KoE*
// backend stores paths: one lazy static tree per stamp tail serves every
// expansion target, settled only as far as the farthest target actually
// requested, and the cache dies with the searcher's query. The tree lives
// in its own workspace so tail recomputes in sr.ws cannot clobber it
// mid-expansion.
func (sr *searcher) staticPathIfAllowed(from, target graph.StateID, costs graph.Costs) ([]graph.Hop, bool) {
	if sr.staticWS == nil {
		sr.staticWS = graph.NewWorkspace()
	}
	if sr.staticTree == nil || sr.staticSrc != from {
		sr.staticTree = sr.e.pf.LazyTreeWS(sr.staticWS, from)
		sr.staticSrc = from
	}
	hops, _, ok := sr.staticTree.AppendPathIfAllowed(sr.hopBuf[:0], target, costs)
	sr.hopBuf = hops[:0]
	return hops, ok
}

// tailPos returns the geometric position of the stamp's tail item (the
// start point for the initial stamp).
func (sr *searcher) tailPos(si *stamp) geom.Point {
	if si.tail() == model.NoDoor {
		return sr.req.Ps
	}
	return sr.e.s.Door(si.tail()).Pos
}
