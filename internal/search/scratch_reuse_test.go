// Scratch-reuse gate on a generated mall: a query on an engine whose pooled
// executor scratch earlier, different queries have churned must equal the
// same query on a brand-new executor over the same index layer. External
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
	eng.PrecomputeMatrix()
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

// brandNew assembles an engine over eng's index layer and KoE* matrix whose
// executor has never run a query.
func brandNew(t *testing.T, eng *search.Engine) *search.Engine {
	t.Helper()
	ne, err := search.NewEngineFromParts(eng.Space(), eng.Keywords(), eng.PathFinder(), eng.Skeleton(), eng.MatrixIfReady(), eng.OracleIfReady())
	if err != nil {
		t.Fatal(err)
	}
	return ne
}
