// Backend-equivalence gate: the acceptance gate for the hierarchical
// distance oracle. Two engines over the same space and keyword index — one
// on the dense all-pairs matrix, one forced onto the oracle — must return
// byte-identical routes for every Table III variant, on both evaluation
// malls, under every overlay scenario, with identical work counters for
// every variant except KoE* (whose backend-bound prune reads the backend's
// own Dist — exact on the matrix, an admissible lower bound on the oracle —
// so its counters are gated directionally instead). EstBytes is the one
// counter always allowed to differ: it reports the backend's resident
// tables, which is exactly the quantity the oracle shrinks.
package search_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

// gateConditions are the overlay scenarios the gate sweeps: none, closures
// only, delays only, and both.
func gateConditions(s *model.Space, seed uint64) map[string]*model.Conditions {
	return map[string]*model.Conditions{
		"bare":     nil,
		"closures": gen.SampleConditions(s, seed, gen.ConditionsConfig{Closures: 4}),
		"delays":   gen.SampleConditions(s, seed+1, gen.ConditionsConfig{Delays: 4, MinDelay: 5, MaxDelay: 60}),
		"mixed":    gen.SampleConditions(s, seed+2, gen.ConditionsConfig{Closures: 3, Delays: 3, MinDelay: 5, MaxDelay: 60}),
	}
}

// backendGate runs every variant × overlay × request on both engines and
// requires identical routes and stats (Elapsed and EstBytes excepted — the
// first measures wall clock, the second the backend under test).
func backendGate(t *testing.T, dense, oracle *search.Engine, reqs []search.Request, conds map[string]*model.Conditions, capExpansions int) {
	t.Helper()
	if dense.MatrixIfReady() == nil {
		t.Fatal("dense engine has no matrix")
	}
	if oracle.OracleIfReady() == nil || oracle.MatrixIfReady() != nil {
		t.Fatal("oracle engine is not pinned to the oracle backend")
	}
	for _, v := range search.Variants() {
		opt, err := search.OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		if opt.DisablePrime {
			opt.MaxExpansions = capExpansions // keep the unpruned variant finite
		}
		for condName, cond := range conds {
			for i, req := range reqs {
				req.Conditions = cond
				want, err := dense.Search(req, opt)
				if err != nil {
					t.Fatalf("%s/%s req %d (dense): %v", v, condName, i, err)
				}
				got, err := oracle.Search(req, opt)
				if err != nil {
					t.Fatalf("%s/%s req %d (oracle): %v", v, condName, i, err)
				}
				if !reflect.DeepEqual(got.Routes, want.Routes) {
					t.Errorf("%s/%s req %d: oracle routes diverged from the dense matrix\n got: %+v\nwant: %+v",
						v, condName, i, got.Routes, want.Routes)
				}
				gs, ws := got.Stats, want.Stats
				gs.Elapsed, ws.Elapsed = 0, 0
				gs.EstBytes, ws.EstBytes = 0, 0
				if opt.Precompute {
					// KoE* consults the backend's own Dist for the
					// backend-bound prune: the matrix answers exactly, the
					// oracle with an admissible lower bound, so the matrix
					// prunes at least as many targets and the oracle does at
					// least as much work. Routes stay byte-identical (checked
					// above); the counters are gated directionally.
					if gs.Pops < ws.Pops || gs.StampsCreated < ws.StampsCreated {
						t.Errorf("%s/%s req %d: oracle did less work than the dense matrix\n got: %+v\nwant: %+v",
							v, condName, i, gs, ws)
					}
					if gs.PrunedBackend > ws.PrunedBackend {
						t.Errorf("%s/%s req %d: oracle backend bound pruned more than the exact matrix\n got: %+v\nwant: %+v",
							v, condName, i, gs, ws)
					}
					continue
				}
				if gs != ws {
					t.Errorf("%s/%s req %d: work counters diverged\n got: %+v\nwant: %+v", v, condName, i, gs, ws)
				}
			}
		}
	}
}

// TestBackendGateSynthetic is the gate on the synthetic evaluation mall.
func TestBackendGateSynthetic(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	dense := search.NewEngine(mall.Space, idx)
	dense.PrecomputeMatrix()
	oracle := search.NewEngine(mall.Space, idx)
	oracle.PrecomputeOracle()
	qg := gen.NewQueryGen(mall, idx, voc, dense.PathFinder(), 23)
	cfg := gen.DefaultQueryConfig(23)
	cfg.Instances = 3
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backendGate(t, dense, oracle, reqs, gateConditions(mall.Space, 271), 50_000)
}

// TestBackendGateReal is the same gate on the simulated Hangzhou mall.
func TestBackendGateReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mall backend gate (KoE* matrix over ~2700 states) skipped in -short")
	}
	mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dense := search.NewEngine(mall.Space, idx)
	dense.PrecomputeMatrix()
	oracle := search.NewEngine(mall.Space, idx)
	oracle.PrecomputeOracle()
	qg := gen.NewQueryGen(mall, idx, voc, dense.PathFinder(), 29)
	cfg := gen.DefaultQueryConfig(29)
	cfg.Alpha = 0.7 // Section V-B default for the real dataset
	cfg.Instances = 2
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conds := map[string]*model.Conditions{
		"bare":  nil,
		"mixed": gen.SampleConditions(mall.Space, 83, gen.ConditionsConfig{Closures: 4, Delays: 4, MinDelay: 5, MaxDelay: 90}),
	}
	backendGate(t, dense, oracle, reqs, conds, 50_000)
}

// TestOracleBackendConcurrentOverlays drives KoE* on one shared engine per
// backend from many goroutines, each under its own overlay, and checks every
// answer against a sequential pass — the -race gate for the per-searcher
// static-tree cache and the pooled static workspace, which serve static
// paths on both backends.
func TestOracleBackendConcurrentOverlays(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []struct {
		name       string
		precompute func(*search.Engine)
	}{
		{"matrix", func(e *search.Engine) { e.PrecomputeMatrix() }},
		{"oracle", func(e *search.Engine) { e.PrecomputeOracle() }},
	} {
		t.Run(backend.name, func(t *testing.T) {
			eng := search.NewEngine(mall.Space, idx)
			backend.precompute(eng)
			concurrentOverlays(t, mall, voc, idx, eng)
		})
	}
}

func concurrentOverlays(t *testing.T, mall *gen.Mall, voc *gen.Vocabulary, idx *keyword.Index, eng *search.Engine) {
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 37)
	cfg := gen.DefaultQueryConfig(37)
	cfg.Instances = 2
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := search.OptionsFor(search.VariantKoEStar)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		req  search.Request
		want *search.Result
	}
	var jobs []job
	for s := uint64(0); s < 4; s++ {
		cond := gen.SampleConditions(mall.Space, 500+s, gen.ConditionsConfig{Closures: 2, Delays: 2, MinDelay: 5, MaxDelay: 60})
		for _, req := range reqs {
			req.Conditions = cond
			want, err := eng.Search(req, opt)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{req, want})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*4)
	for round := 0; round < 4; round++ {
		for ji, j := range jobs {
			wg.Add(1)
			go func(ji int, j job) {
				defer wg.Done()
				got, err := eng.Search(j.req, opt)
				if err != nil {
					errs <- fmt.Errorf("job %d: %v", ji, err)
					return
				}
				if !reflect.DeepEqual(got.Routes, j.want.Routes) {
					errs <- fmt.Errorf("job %d: concurrent routes diverged", ji)
				}
			}(ji, j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBackendBoundAblation pins the KoE* backend-bound prune both ways:
// disabling it must change no route on either backend (the bound only drops
// provably hopeless work), must zero the PrunedBackend counter, and must
// restore exact dense↔oracle work-counter equality — the pre-bound symmetric
// behavior, since without the bound neither backend's Dist is consulted for
// pruning. With the bound on, the prune must actually fire somewhere, or the
// gate is vacuous.
func TestBackendBoundAblation(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	dense := search.NewEngine(mall.Space, idx)
	dense.PrecomputeMatrix()
	oracle := search.NewEngine(mall.Space, idx)
	oracle.PrecomputeOracle()
	qg := gen.NewQueryGen(mall, idx, voc, dense.PathFinder(), 23)
	cfg := gen.DefaultQueryConfig(23)
	cfg.Instances = 3
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := search.OptionsFor(search.VariantKoEStar)
	if err != nil {
		t.Fatal(err)
	}
	optOff := opt
	optOff.DisableBackendBound = true

	pruned := 0
	for condName, cond := range gateConditions(mall.Space, 271) {
		for i, req := range reqs {
			req.Conditions = cond
			for _, eng := range []struct {
				name string
				e    *search.Engine
			}{{"dense", dense}, {"oracle", oracle}} {
				on, err := eng.e.Search(req, opt)
				if err != nil {
					t.Fatalf("%s/%s req %d (bound on): %v", eng.name, condName, i, err)
				}
				off, err := eng.e.Search(req, optOff)
				if err != nil {
					t.Fatalf("%s/%s req %d (bound off): %v", eng.name, condName, i, err)
				}
				if !reflect.DeepEqual(on.Routes, off.Routes) {
					t.Errorf("%s/%s req %d: backend bound changed the routes\n  on: %+v\n off: %+v",
						eng.name, condName, i, on.Routes, off.Routes)
				}
				if off.Stats.PrunedBackend != 0 {
					t.Errorf("%s/%s req %d: PrunedBackend = %d with the bound disabled",
						eng.name, condName, i, off.Stats.PrunedBackend)
				}
				pruned += on.Stats.PrunedBackend
			}

			// Without the bound neither backend's Dist feeds a prune, so the
			// full work counters must agree exactly again.
			dOff, err := dense.Search(req, optOff)
			if err != nil {
				t.Fatal(err)
			}
			oOff, err := oracle.Search(req, optOff)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := oOff.Stats, dOff.Stats
			gs.Elapsed, ws.Elapsed = 0, 0
			gs.EstBytes, ws.EstBytes = 0, 0
			if gs != ws {
				t.Errorf("%s req %d: ablated work counters diverged\n got: %+v\nwant: %+v",
					condName, i, gs, ws)
			}
		}
	}
	if pruned == 0 {
		t.Error("backend bound never pruned a target on the gate workload")
	}
}
