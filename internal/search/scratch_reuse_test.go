// Scratch-reuse gate on a generated mall: a query on an engine whose pooled
// scratch earlier, different queries have churned must equal the same
// query on a brand-new engine over the same index layer. External
// test package because it drives the generated malls.
package search_test

import (
	"reflect"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

// TestFreshSearcherMatchesPooled runs every Table III variant over bare
// and mixed overlays: routes and every Stats field but Elapsed must match.
func TestFreshSearcherMatchesPooled(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.Precompute()
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 31)
	cfg := gen.DefaultQueryConfig(31)
	cfg.Instances = 2
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conds := map[string]*model.Conditions{
		"bare":  nil,
		"mixed": gen.SampleConditions(mall.Space, 271, gen.ConditionsConfig{Closures: 3, Delays: 3, MinDelay: 5, MaxDelay: 60}),
	}
	for _, v := range search.Variants() {
		opt, err := search.OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		if opt.DisablePrime {
			opt.MaxExpansions = 20_000 // keep the unpruned variant finite
		}
		for condName, cond := range conds {
			for i, req := range reqs {
				req.Conditions = cond
				churned, err := eng.Search(req, opt)
				if err != nil {
					t.Fatalf("%s/%s req %d: %v", v, condName, i, err)
				}
				fresh, err := brandNew(t, eng).Search(req, opt)
				if err != nil {
					t.Fatalf("%s/%s req %d (brand-new): %v", v, condName, i, err)
				}
				if !reflect.DeepEqual(churned.Routes, fresh.Routes) {
					t.Errorf("%s/%s req %d: routes diverged on churned scratch\n got: %+v\nwant: %+v",
						v, condName, i, churned.Routes, fresh.Routes)
				}
				cs, fs := churned.Stats, fresh.Stats
				cs.Elapsed, fs.Elapsed = 0, 0
				if cs != fs {
					t.Errorf("%s/%s req %d: work counters diverged\n got: %+v\nwant: %+v", v, condName, i, cs, fs)
				}
			}
		}
	}
}

// TestMixedKindScratchReuse pins the scratch pool that route and sequence
// queries share: queries of one kind under a closures-and-delays overlay,
// then queries of the other kind — bare, or under a different overlay —
// must equal the same queries on a brand-new engine, in both orders. The
// overlay's door sets live on the shared scratch, so an overlay load that
// left the previous query's sets behind shows here whichever kind ran
// first.
func TestMixedKindScratchReuse(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.Precompute()
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 37)
	qcfg := gen.DefaultQueryConfig(37)
	qcfg.Instances = 3
	routes, err := qg.Instances(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := gen.DefaultSequenceSampleConfig()
	scfg.Legs = 2
	seqs := sequenceInstances(t, eng, 43, 3, scfg)
	churn := gen.SampleConditions(mall.Space, 281, gen.ConditionsConfig{Closures: 12, Delays: 12, MinDelay: 5, MaxDelay: 60})
	followUps := []struct {
		name string
		cond *model.Conditions
	}{
		{"bare", nil},
		{"other", gen.SampleConditions(mall.Space, 283, gen.ConditionsConfig{Closures: 1, Delays: 1, MinDelay: 5, MaxDelay: 60})},
	}
	opt := search.Options{Algorithm: search.KoE}

	runRoutes := func(e *search.Engine, cond *model.Conditions) []*search.Result {
		t.Helper()
		var out []*search.Result
		for _, r := range routes {
			r.Conditions = cond
			res, err := e.Search(r, opt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	runSeqs := func(e *search.Engine, cond *model.Conditions) []*search.SequenceResult {
		t.Helper()
		var out []*search.SequenceResult
		for _, r := range seqs {
			r.Conditions = cond
			res, err := e.SearchSequence(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}

	for _, f := range followUps {
		name, cond := f.name, f.cond
		runRoutes(eng, churn)
		got, want := runSeqs(eng, cond), runSeqs(brandNew(t, eng), cond)
		for i := range want {
			if !reflect.DeepEqual(got[i].Routes, want[i].Routes) {
				t.Errorf("route churn, then %s sequence req %d: routes diverged from a brand-new engine\n got: %+v\nwant: %+v",
					name, i, got[i].Routes, want[i].Routes)
			}
		}

		runSeqs(eng, churn)
		gotR, wantR := runRoutes(eng, cond), runRoutes(brandNew(t, eng), cond)
		for i := range wantR {
			if !reflect.DeepEqual(gotR[i].Routes, wantR[i].Routes) {
				t.Errorf("sequence churn, then %s route req %d: routes diverged from a brand-new engine\n got: %+v\nwant: %+v",
					name, i, gotR[i].Routes, wantR[i].Routes)
			}
		}
	}
}

// brandNew assembles an engine over eng's index layer and KoE* backend
// whose scratch pool has never run a query.
func brandNew(t *testing.T, eng *search.Engine) *search.Engine {
	t.Helper()
	ne, err := search.NewEngineFromParts(eng.Space(), eng.Keywords(), eng.PathFinder(), eng.Skeleton(), eng.DistanceSourceIfReady())
	if err != nil {
		t.Fatal(err)
	}
	return ne
}
