// Closure-oracle and concurrency gates for the Conditions overlay, in an
// external test package because they drive the search through the generated
// evaluation malls (internal/gen imports internal/search, so these tests
// cannot live inside package search).
package search_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

// rebuiltWithout constructs the comparison engine for a closure set: a
// fresh engine over a space that physically omits the closed doors,
// sharing the keyword index (closures do not touch partitions). It returns
// the engine and the old→new door remap.
func rebuiltWithout(t *testing.T, eng *search.Engine, closed []model.DoorID) (*search.Engine, []model.DoorID) {
	t.Helper()
	frec, remap := eng.Space().Export().WithoutDoors(closed)
	fs, err := model.SpaceFromRecord(frec)
	if err != nil {
		t.Fatalf("closure set %v does not leave a buildable space: %v", closed, err)
	}
	return search.NewEngine(fs, eng.Keywords()), remap
}

// closureOracle runs every Table III variant over the requests on both
// engines — the original with a closure overlay on each request, the
// rebuilt one bare — and requires identical routes and scores, door IDs
// translated through the remap.
func closureOracle(t *testing.T, eng *search.Engine, reqs []search.Request, closed []model.DoorID, capExpansions int) {
	t.Helper()
	rebuilt, remap := rebuiltWithout(t, eng, closed)
	cond := model.NewConditions().Close(closed...)

	for _, v := range search.Variants() {
		opt, err := search.OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		if opt.DisablePrime {
			opt.MaxExpansions = capExpansions // keep the unpruned variant finite
		}
		for i, req := range reqs {
			overlaid := req
			overlaid.Conditions = cond
			got, err := eng.Search(overlaid, opt)
			if err != nil {
				t.Fatalf("%s req %d overlay: %v", v, i, err)
			}
			req.Conditions = nil
			want, err := rebuilt.Search(req, opt)
			if err != nil {
				t.Fatalf("%s req %d rebuilt: %v", v, i, err)
			}
			if err := sameRoutesModuloRemap(got, want, remap); err != nil {
				t.Errorf("%s req %d: overlay ≠ rebuilt: %v", v, i, err)
			}
		}
	}
}

// sameRoutesModuloRemap compares an overlay result (original door IDs)
// against a rebuilt-engine result (filtered door IDs) through the remap.
// Scores and distances must match exactly: both engines execute identical
// float operations in identical order, which the deterministic tie-breaking
// of the distance stack guarantees. The kernel breaks ties on state ID,
// and states are numbered in (door, partition) order, which the rebuild's
// order-preserving door renumbering keeps.
func sameRoutesModuloRemap(got, want *search.Result, remap []model.DoorID) error {
	if len(got.Routes) != len(want.Routes) {
		return fmt.Errorf("%d routes vs %d", len(got.Routes), len(want.Routes))
	}
	for r := range got.Routes {
		g, w := &got.Routes[r], &want.Routes[r]
		if g.Psi != w.Psi || g.Rho != w.Rho || g.Dist != w.Dist {
			return fmt.Errorf("rank %d: ψ/ρ/δ = %v/%v/%v vs %v/%v/%v",
				r+1, g.Psi, g.Rho, g.Dist, w.Psi, w.Rho, w.Dist)
		}
		if len(g.Doors) != len(w.Doors) {
			return fmt.Errorf("rank %d: %d doors vs %d", r+1, len(g.Doors), len(w.Doors))
		}
		for i, d := range g.Doors {
			if remap[d] == model.NoDoor {
				return fmt.Errorf("rank %d: overlay route passes closed door %d", r+1, d)
			}
			if remap[d] != w.Doors[i] {
				return fmt.Errorf("rank %d hop %d: door %d remaps to %d, rebuilt has %d",
					r+1, i, d, remap[d], w.Doors[i])
			}
			if g.Entered[i] != w.Entered[i] {
				return fmt.Errorf("rank %d hop %d: entered %d vs %d", r+1, i, g.Entered[i], w.Entered[i])
			}
		}
		if !reflect.DeepEqual(g.KP, w.KP) || !reflect.DeepEqual(g.Sims, w.Sims) {
			return fmt.Errorf("rank %d: KP/sims differ", r+1)
		}
	}
	return nil
}

// closureSets draws n distinct rebuild-safe closure scenarios.
func closureSets(s *model.Space, seed uint64, n, size int) [][]model.DoorID {
	out := make([][]model.DoorID, n)
	for i := range out {
		cond := gen.SampleConditions(s, seed+uint64(i)*31, gen.ConditionsConfig{
			Closures: size, Rebuildable: true,
		})
		out[i] = cond.ClosedDoors()
	}
	return out
}

// TestClosureOracleSynthetic is the acceptance gate on the synthetic
// evaluation mall: for every Table III variant, searching with a closure
// overlay returns routes identical to a freshly built engine whose space
// omits those doors.
func TestClosureOracleSynthetic(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.PrecomputeMatrix() // overlay queries must survive a full static matrix
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 23)
	cfg := gen.DefaultQueryConfig(23)
	cfg.Instances = 3
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, closed := range closureSets(mall.Space, 1009, 2, 4) {
		t.Run(fmt.Sprintf("scenario%d", i), func(t *testing.T) {
			closureOracle(t, eng, reqs, closed, 50_000)
		})
	}
}

// TestClosureOracleReal is the same gate on the simulated Hangzhou mall.
func TestClosureOracleReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mall closure oracle (two KoE* matrices over ~2700 states) skipped in -short")
	}
	mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 23)
	cfg := gen.DefaultQueryConfig(23)
	cfg.Alpha = 0.7 // Section V-B default for the real dataset
	cfg.Instances = 2
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := closureSets(mall.Space, 4441, 1, 5)[0]
	closureOracle(t, eng, reqs, closed, 50_000)
}

// TestConcurrentDistinctOverlays shares one engine between goroutines that
// each search with a different Conditions overlay, and requires every
// result to match its serial reference byte for byte — pooled scratch
// must never leak one query's overlay door sets into another. Workers
// rotate through ToE, KoE and KoE*, so the KoE family's per-expansion
// paused run, its route door set and the PartitionBound memo run beside
// ToE on the same pool. Run under -race in CI.
func TestConcurrentDistinctOverlays(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 5)
	cfg := gen.DefaultQueryConfig(5)
	cfg.Instances = 2
	baseReqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	scfg := gen.ConditionsConfig{Closures: 3, Delays: 3, MinDelay: 5, MaxDelay: 50}
	variants := []search.Variant{search.VariantToE, search.VariantKoE, search.VariantKoEStar}
	opts := make([]search.Options, workers)
	for w := range opts {
		opt, err := search.OptionsFor(variants[w%len(variants)])
		if err != nil {
			t.Fatal(err)
		}
		opts[w] = opt
	}

	// Per-worker overlaid requests and their serial reference results.
	reqs := make([][]search.Request, workers)
	want := make([][]*search.Result, workers)
	for w := 0; w < workers; w++ {
		cond := gen.SampleConditions(mall.Space, 77+uint64(w)*13, scfg)
		for _, r := range baseReqs {
			r.Conditions = cond
			reqs[w] = append(reqs[w], r)
		}
		for _, r := range reqs[w] {
			res, err := eng.Search(r, opts[w])
			if err != nil {
				t.Fatal(err)
			}
			want[w] = append(want[w], res)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, r := range reqs[w] {
					res, err := eng.Search(r, opts[w])
					if err != nil {
						errs[w] = err
						return
					}
					if !reflect.DeepEqual(res.Routes, want[w][i].Routes) {
						errs[w] = fmt.Errorf("worker %d (%s) round %d req %d: routes diverged from serial reference", w, variants[w%len(variants)], round, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
