// Boundary gates for the engine's two early stops, on the synthetic
// evaluation mall: KoE's kernel distance stop with Δ exactly at a route's
// distance, and the sequence planner's ψ-ordered finish with the k-th place
// tied and k swept past the feasible plans. External test package because
// the gates drive the generated mall.
package search_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

// TestDistanceStopAtCapSynthetic re-runs each KoE query with Δ set to each
// of its routes' exact distance, bare and under closures and delays, on a
// mall whose hop lengths are irrational, so the stop's bound and the spliced
// route sum the same lengths in different orders. KoE and KoE*, with the
// backend bound on and off, must return exactly the routes of KoE without
// distance pruning, which runs no stop.
func TestDistanceStopAtCapSynthetic(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.Precompute()
	// Query 13 of this stream has a route whose KoE* targets a stop with no
	// headroom over the cap (graph.SumSlack) drops.
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 6)
	cfg := gen.DefaultQueryConfig(6)
	cfg.Instances = 16
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := search.Options{Algorithm: search.KoE, DisableDistancePruning: true}
	opts := map[string]search.Options{
		"KoE":          {Algorithm: search.KoE},
		"KoE*":         {Algorithm: search.KoE, Precompute: true},
		"KoE*-nobound": {Algorithm: search.KoE, Precompute: true, DisableBackendBound: true},
	}
	conds := map[string]*model.Conditions{
		"bare":     nil,
		"closures": gen.SampleConditions(mall.Space, 311, gen.ConditionsConfig{Closures: 4}),
		"delays":   gen.SampleConditions(mall.Space, 312, gen.ConditionsConfig{Closures: 2, Delays: 4, MinDelay: 5, MaxDelay: 60}),
	}
	capped := 0
	for condName, cond := range conds {
		for i, base := range reqs {
			base.Conditions = cond
			first, err := eng.Search(base, ref)
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range first.Routes {
				req := base
				req.Delta = r.Dist
				want, err := eng.Search(req, ref)
				if err != nil {
					t.Fatal(err)
				}
				for name, opt := range opts {
					got, err := eng.Search(req, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Routes, want.Routes) {
						t.Errorf("%s req %d, Δ = route %d's distance %v, %s: routes diverged from the unstopped search\n got: %+v\nwant: %+v",
							condName, i, j, r.Dist, name, got.Routes, want.Routes)
					}
				}
				capped++
			}
		}
	}
	if capped == 0 {
		t.Fatal("no route to cap Δ at")
	}
	t.Logf("%d capped queries checked", capped)
}

// TestSequenceStopAtKth sweeps k from 1 to one past the feasible plans of
// each sequence query and requires the planner, which stops finishing once
// the top k are decided, to return exactly the exhaustive baseline's routes.
// At α = 1 ψ ignores distance, so plans tie on ψ at the k-th place and rank
// by distance and then waypoints; the gate requires such ties to occur.
func TestSequenceStopAtKth(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.Precompute()
	reqs := sequenceInstances(t, eng, 41, 6, gen.DefaultSequenceSampleConfig())
	ties := 0
	for _, alpha := range []float64{0, 1} {
		for i, req := range reqs {
			req.Alpha = alpha
			req.K = math.MaxInt32
			all, err := eng.ExhaustiveSequence(req)
			if err != nil {
				t.Fatal(err)
			}
			n := len(all.Routes)
			for k := 1; k <= n+1; k++ {
				req.K = k
				got, err := eng.SearchSequence(req)
				if err != nil {
					t.Fatal(err)
				}
				want, err := eng.ExhaustiveSequence(req)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("α=%v req %d k=%d", alpha, i, k)
				if !reflect.DeepEqual(got.Routes, want.Routes) {
					t.Errorf("%s: planner routes diverged from exhaustive baseline\nplanner:  %+v\nbaseline: %+v",
						label, got.Routes, want.Routes)
				}
				if got.Stats.Plans > want.Stats.Plans {
					t.Errorf("%s: planner ranked %d plans, more than the %d feasible", label, got.Stats.Plans, want.Stats.Plans)
				}
				if k < n && all.Routes[k-1].Psi == all.Routes[k].Psi {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no query tied on ψ at the k-th place")
	}
	t.Logf("%d k-th places tied on ψ", ties)
}

// TestSequenceDeltaAtCap re-runs each sequence query with Δ set to each of
// its routes' exact distance, so the Δ bound of that route's prefixes sits
// at the cap, and requires the planner to return exactly the exhaustive
// baseline's routes, bare and under closures and delays.
func TestSequenceDeltaAtCap(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.Precompute()
	reqs := sequenceInstances(t, eng, 43, 8, gen.DefaultSequenceSampleConfig())
	capped := 0
	for name, cond := range sequenceOverlays(mall.Space, 431) {
		for i, base := range reqs {
			base.Conditions = cond
			first, err := eng.ExhaustiveSequence(base)
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range first.Routes {
				req := base
				req.Delta = r.Dist
				got, err := eng.SearchSequence(req)
				if err != nil {
					t.Fatal(err)
				}
				want, err := eng.ExhaustiveSequence(req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Routes, want.Routes) {
					t.Errorf("%s req %d, Δ = route %d's distance %v: planner routes diverged from exhaustive baseline\nplanner:  %+v\nbaseline: %+v",
						name, i, j, r.Dist, got.Routes, want.Routes)
				}
				capped++
			}
		}
	}
	if capped == 0 {
		t.Fatal("no route to cap Δ at")
	}
	t.Logf("%d capped queries checked", capped)
}
