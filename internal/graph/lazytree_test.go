package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestLazyTreeMatchesFullTree drives a lazy tree over random malls in a
// random target order and asserts every answer — distance and hop sequence —
// is identical to a fully-settled static tree from the same source. This is
// the invariant the oracle-mode KoE* path cache rests on: suspending
// Dijkstra early must never change what has settled.
func TestLazyTreeMatchesFullTree(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 7, 23} {
		s := randomMall(t, seed)
		pf := NewPathFinder(s)
		n := pf.NumStates()
		rng := rand.New(rand.NewSource(seed * 101))
		for trial := 0; trial < 8; trial++ {
			src := StateID(rng.Intn(n))
			full := pf.ShortestTreeWS(NewWorkspace(), []Seed{{State: src}}, Costs{})
			lt := pf.LazyTreeWS(NewWorkspace(), []Seed{{State: src}}, Costs{})
			// Random target order, with repeats: repeats must hit the
			// settled fast path and still answer identically.
			for q := 0; q < 2*n; q++ {
				tgt := StateID(rng.Intn(n))
				wd := full.Dist(tgt)
				gd := lt.Dist(tgt)
				if wd != gd && !(math.IsInf(wd, 1) && math.IsInf(gd, 1)) {
					t.Fatalf("seed %d src %d tgt %d: lazy dist %v, full %v", seed, src, tgt, gd, wd)
				}
				wantHops, wantOK := full.AppendPathTo(nil, tgt)
				gotHops, gotOK := lt.AppendPathTo(nil, tgt)
				if wantOK != gotOK || !reflect.DeepEqual(wantHops, gotHops) {
					t.Fatalf("seed %d src %d tgt %d: lazy path (%v,%v), full (%v,%v)",
						seed, src, tgt, gotHops, gotOK, wantHops, wantOK)
				}
			}
		}
	}
}

// TestLazyTreeInvalidatedPanics locks in the borrow contract: once the
// workspace runs again, resuming the lazy tree must panic rather than serve
// stale parents.
func TestLazyTreeInvalidatedPanics(t *testing.T) {
	t.Parallel()
	s := randomMall(t, 3)
	pf := NewPathFinder(s)
	ws := NewWorkspace()
	lt := pf.LazyTreeWS(ws, []Seed{{State: 0}}, Costs{})
	lt.Dist(StateID(pf.NumStates() - 1))
	pf.ShortestTreeWS(ws, []Seed{{State: 1}}, Costs{})
	defer func() {
		if recover() == nil {
			t.Fatal("Dist on an invalidated LazyTree did not panic")
		}
	}()
	lt.Dist(0)
}

// TestLazyTreeStopsAtDistance reads targets under distance stops between
// reads without one, in a random order, and checks each against a fully
// settled tree: a read answers exactly when the target's distance is
// within its stop (a target exactly at the cap included), reports beyond
// only for targets past it, and a stopped read leaves the run resumable,
// so every later read still answers like the full tree. A stopped read
// that left its target marked would end the next read as soon as that
// target settled.
func TestLazyTreeStopsAtDistance(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 7, 23} {
		s := randomMall(t, seed)
		pf := NewPathFinder(s)
		n := pf.NumStates()
		rng := rand.New(rand.NewSource(seed * 131))
		for trial := 0; trial < 8; trial++ {
			src := StateID(rng.Intn(n))
			full := pf.ShortestTreeWS(NewWorkspace(), []Seed{{State: src}}, Costs{})
			lt := pf.LazyTreeWS(NewWorkspace(), []Seed{{State: src}}, Costs{})
			stopped := 0
			for q := 0; q < 2*n; q++ {
				tgt := StateID(rng.Intn(n))
				wd := full.Dist(tgt)
				wantHops, wantOK := full.AppendPathTo(nil, tgt)
				if q%2 == 1 {
					gotHops, gotOK := lt.AppendPathTo(nil, tgt)
					if wantOK != gotOK || !reflect.DeepEqual(wantHops, gotHops) {
						t.Fatalf("seed %d src %d tgt %d: read after stops (%v,%v), full (%v,%v)",
							seed, src, tgt, gotHops, gotOK, wantHops, wantOK)
					}
					continue
				}
				// A cap at this target's own distance, or at another's.
				cap := full.Dist(StateID(rng.Intn(n)))
				if rng.Intn(3) == 0 || math.IsInf(cap, 1) {
					cap = wd
				}
				base := cap * rng.Float64() / 2
				stop := StopAt(base, 0, cap)
				gotHops, gotOK, beyond := lt.AppendPathWithin(nil, tgt, stop)
				switch {
				case gotOK:
					if stop.Beyond(wd) || !reflect.DeepEqual(wantHops, gotHops) {
						t.Fatalf("seed %d src %d tgt %d: read %v under a stop at %v past d %v, full %v",
							seed, src, tgt, gotHops, cap, wd, wantHops)
					}
				case beyond:
					stopped++
					if !stop.Beyond(wd) {
						t.Fatalf("seed %d src %d tgt %d: d %v within the stop (base %v, cap %v) reported beyond",
							seed, src, tgt, wd, base, cap)
					}
				case wantOK && !stop.Beyond(wd):
					t.Fatalf("seed %d src %d tgt %d: reachable d %v within the stop not read", seed, src, tgt, wd)
				}
			}
			if stopped == 0 {
				t.Fatalf("seed %d src %d: no read stopped", seed, src)
			}
		}
	}
}
