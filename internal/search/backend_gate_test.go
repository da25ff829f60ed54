// Backend-equivalence gate: the acceptance gate for the hierarchical
// distance oracle. Two engines over the same index layer — one on the
// oracle, one on denseSource, an exact all-pairs reference injected through
// NewEngineFromParts — must return byte-identical routes for every Table
// III variant, on both evaluation malls, under every overlay scenario, with
// identical work counters for every variant except KoE* (whose
// backend-bound prune reads the backend's own Dist — exact on the
// reference, an admissible lower bound on the oracle — so its counters are
// gated directionally instead). EstBytes is the one counter always allowed
// to differ: it reports the backend's resident tables, which is exactly the
// quantity the oracle shrinks.
package search_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/graph"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

// denseSource is the gates' exact KoE* reference: the static distance of
// every ordered state pair, one kernel sweep per state (Θ(states²) memory,
// which is why the engine serves the oracle instead), with static paths
// read from the kernel exactly as the oracle reads them.
type denseSource struct {
	pf   *graph.PathFinder
	n    int
	dist []float64 // n×n row-major, +Inf for unreachable
}

func newDenseSource(pf *graph.PathFinder) *denseSource {
	n := pf.NumStates()
	d := &denseSource{pf: pf, n: n, dist: make([]float64, n*n)}
	ws := graph.NewWorkspace()
	for a := 0; a < n; a++ {
		tree := pf.ShortestTreeWS(ws, []graph.Seed{{State: graph.StateID(a)}}, graph.Costs{})
		for b := 0; b < n; b++ {
			d.dist[a*n+b] = tree.Dist(graph.StateID(b))
		}
	}
	return d
}

func (d *denseSource) Dist(a, b graph.StateID) float64 { return d.dist[int(a)*d.n+int(b)] }

func (d *denseSource) AppendStaticPathIfAllowed(ws *graph.Workspace, dst []graph.Hop, a, b graph.StateID, costs graph.Costs) ([]graph.Hop, float64, bool) {
	return d.pf.LazyTreeWS(ws, []graph.Seed{{State: a}}, graph.Costs{}).AppendPathIfAllowed(dst, b, costs)
}

func (d *denseSource) Finder() *graph.PathFinder { return d.pf }
func (d *denseSource) Bytes() int64              { return int64(len(d.dist)) * 8 }
func (d *denseSource) Kind() string              { return "dense" }

// gateEngines returns two engines over the mall's index layer: one on the
// dense reference and one on the oracle, both ready.
func gateEngines(t *testing.T, mall *gen.Mall, idx *keyword.Index) (dense, oracle *search.Engine) {
	t.Helper()
	oracle = search.NewEngine(mall.Space, idx)
	oracle.Precompute()
	dense, err := search.NewEngineFromParts(oracle.Space(), oracle.Keywords(), oracle.PathFinder(), oracle.Skeleton(),
		newDenseSource(oracle.PathFinder()))
	if err != nil {
		t.Fatal(err)
	}
	return dense, oracle
}

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
	if _, ok := dense.DistanceSourceIfReady().(*denseSource); !ok {
		t.Fatal("dense engine is not on the dense reference")
	}
	if ds := oracle.DistanceSourceIfReady(); ds == nil || ds.Kind() != "oracle" {
		t.Fatal("oracle engine has no oracle")
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
					t.Errorf("%s/%s req %d: oracle routes diverged from the dense reference\n got: %+v\nwant: %+v",
						v, condName, i, got.Routes, want.Routes)
				}
				gs, ws := got.Stats, want.Stats
				gs.Elapsed, ws.Elapsed = 0, 0
				gs.EstBytes, ws.EstBytes = 0, 0
				if opt.Precompute {
					// KoE* consults the backend's own Dist for the
					// backend-bound prune: the reference answers exactly,
					// the oracle with an admissible lower bound, so the
					// reference prunes at least as many targets and the
					// oracle does at least as much work. Routes stay
					// byte-identical (checked above); the counters are gated
					// directionally.
					if gs.Pops < ws.Pops || gs.StampsCreated < ws.StampsCreated {
						t.Errorf("%s/%s req %d: oracle did less work than the dense reference\n got: %+v\nwant: %+v",
							v, condName, i, gs, ws)
					}
					if gs.PrunedBackend > ws.PrunedBackend {
						t.Errorf("%s/%s req %d: oracle backend bound pruned more than the exact reference\n got: %+v\nwant: %+v",
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
	dense, oracle := gateEngines(t, mall, idx)
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
		t.Skip("real-mall backend gate (dense reference over ~2700 states) skipped in -short")
	}
	mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dense, oracle := gateEngines(t, mall, idx)
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
// backend — the dense reference ("matrix") and the oracle — from many
// goroutines, each under its own overlay, and checks every answer against a
// sequential pass: the -race gate for the per-searcher static-tree cache
// and the pooled static workspace, which serve static paths on both.
func TestOracleBackendConcurrentOverlays(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	dense, oracle := gateEngines(t, mall, idx)
	for _, backend := range []struct {
		name string
		eng  *search.Engine
	}{{"matrix", dense}, {"oracle", oracle}} {
		t.Run(backend.name, func(t *testing.T) {
			concurrentOverlays(t, mall, voc, idx, backend.eng)
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
	dense, oracle := gateEngines(t, mall, idx)
	qg := gen.NewQueryGen(mall, idx, voc, dense.PathFinder(), 23)
	cfg := gen.DefaultQueryConfig(23)
	cfg.Instances = 3
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boundAblation(t, dense, oracle, reqs, gateConditions(mall.Space, 271))
}

// TestBackendBoundAblationReal is the same ablation on the simulated
// Hangzhou mall over 200 requests: the real mall's seven floors give the
// oracle's same-floor bound most room to be loose, which is where KoE*
// re-tests the bound with the exact static jump before a recompute
// (koePath), so an inadmissible version of that check shows up as a
// changed route here.
func TestBackendBoundAblationReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mall backend-bound ablation skipped in -short")
	}
	mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dense, oracle := gateEngines(t, mall, idx)
	qg := gen.NewQueryGen(mall, idx, voc, dense.PathFinder(), 29)
	cfg := gen.DefaultQueryConfig(29)
	cfg.Alpha = 0.7 // Section V-B default for the real dataset
	cfg.Instances = 200
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boundAblation(t, dense, oracle, reqs, gateConditions(mall.Space, 271))
}

func boundAblation(t *testing.T, dense, oracle *search.Engine, reqs []search.Request, conds map[string]*model.Conditions) {
	t.Helper()
	opt, err := search.OptionsFor(search.VariantKoEStar)
	if err != nil {
		t.Fatal(err)
	}
	optOff := opt
	optOff.DisableBackendBound = true

	pruned := 0
	for condName, cond := range conds {
		for i, req := range reqs {
			req.Conditions = cond
			var offStats [2]search.Stats
			for k, eng := range []struct {
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
				offStats[k] = off.Stats
				offStats[k].Elapsed, offStats[k].EstBytes = 0, 0
			}

			// Without the bound neither backend's Dist feeds a prune, so the
			// full work counters must agree exactly again.
			if ws, gs := offStats[0], offStats[1]; gs != ws {
				t.Errorf("%s req %d: ablated work counters diverged\n got: %+v\nwant: %+v",
					condName, i, gs, ws)
			}
		}
	}
	if pruned == 0 {
		t.Error("backend bound never pruned a target on the gate workload")
	}
}
