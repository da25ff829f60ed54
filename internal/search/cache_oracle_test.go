// Cache-transparency oracle: the tentpole acceptance gate of the result
// cache. A cache-enabled engine must be observationally indistinguishable
// from an uncached one — byte-identical routes, scores, sims and work
// stats on every Table III variant, bare and under closure and delay
// overlays, on both evaluation malls — while hits perform zero searcher
// work. External test package for the same reason as the closure oracle:
// these gates drive the search through internal/gen.
package search_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

// sameCachedResult requires got to be byte-identical to want modulo
// Stats.Elapsed (wall time is the one field a cache hit legitimately does
// not re-measure; hits return the miss's timing).
func sameCachedResult(got, want *search.Result) error {
	if !reflect.DeepEqual(got.Routes, want.Routes) {
		return fmt.Errorf("routes differ:\n got: %+v\nwant: %+v", got.Routes, want.Routes)
	}
	g, w := got.Stats, want.Stats
	g.Elapsed, w.Elapsed = 0, 0
	if g != w {
		return fmt.Errorf("stats differ: %+v vs %+v", g, w)
	}
	return nil
}

// cacheOverlays builds the three live-state scenarios every oracle case
// runs under: bare, a closure overlay and a delay overlay.
func cacheOverlays(s *model.Space, seed uint64) []struct {
	name string
	cond *model.Conditions
} {
	return []struct {
		name string
		cond *model.Conditions
	}{
		{"bare", nil},
		{"closures", gen.SampleConditions(s, seed, gen.ConditionsConfig{Closures: 3, Rebuildable: true})},
		{"delays", gen.SampleConditions(s, seed+1, gen.ConditionsConfig{Delays: 3, MinDelay: 10, MaxDelay: 60})},
	}
}

// cacheOracle runs every variant × overlay × request against a cached and
// an uncached engine over the same space and index: the cached engine's
// miss and hit must both match the uncached answer, and the hit pass must
// add zero searcher executions.
func cacheOracle(t *testing.T, cached, uncached *search.Engine, reqs []search.Request, capExpansions int) {
	t.Helper()
	rc := cached.ResultCache()
	if rc == nil {
		t.Fatal("cached engine has no result cache")
	}
	overlays := cacheOverlays(cached.Space(), 2027)
	for _, v := range search.Variants() {
		opt, err := search.OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		if opt.DisablePrime {
			opt.MaxExpansions = capExpansions // keep the unpruned variant finite
		}
		for _, ov := range overlays {
			for i, req := range reqs {
				req.Conditions = ov.cond
				want, err := uncached.Search(req, opt)
				if err != nil {
					t.Fatalf("%s/%s req %d uncached: %v", v, ov.name, i, err)
				}
				miss, err := cached.Search(req, opt)
				if err != nil {
					t.Fatalf("%s/%s req %d miss: %v", v, ov.name, i, err)
				}
				if err := sameCachedResult(miss, want); err != nil {
					t.Fatalf("%s/%s req %d: miss diverged from uncached: %v", v, ov.name, i, err)
				}
				before := cached.Executions()
				hitsBefore := rc.Stats().Hits
				hit, err := cached.Search(req, opt)
				if err != nil {
					t.Fatalf("%s/%s req %d hit: %v", v, ov.name, i, err)
				}
				if err := sameCachedResult(hit, want); err != nil {
					t.Fatalf("%s/%s req %d: hit diverged from uncached: %v", v, ov.name, i, err)
				}
				if got := cached.Executions(); got != before {
					t.Fatalf("%s/%s req %d: cache hit ran the searcher (%d executions)", v, ov.name, i, got-before)
				}
				if rc.Stats().Hits != hitsBefore+1 {
					t.Fatalf("%s/%s req %d: repeat was not a cache hit", v, ov.name, i)
				}
			}
		}
	}
}

// cacheOracleEngines builds the cached/uncached engine pair plus a request
// workload over a generated mall.
func cacheOracleEngines(t *testing.T, mall *gen.Mall, voc *gen.Vocabulary, idx *keyword.Index, seed uint64, instances int, alpha float64) (cached, uncached *search.Engine, reqs []search.Request) {
	t.Helper()
	cached = search.NewEngine(mall.Space, idx)
	cached.EnableResultCache(search.CacheOptions{})
	uncached = search.NewEngine(mall.Space, idx)
	qg := gen.NewQueryGen(mall, idx, voc, uncached.PathFinder(), seed)
	cfg := gen.DefaultQueryConfig(seed)
	cfg.Instances = instances
	if alpha > 0 {
		cfg.Alpha = alpha
	}
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cached, uncached, reqs
}

func TestCacheOracleSynthetic(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cached, uncached, reqs := cacheOracleEngines(t, mall, voc, idx, 23, 3, 0)
	cacheOracle(t, cached, uncached, reqs, 50_000)
}

func TestCacheOracleReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mall cache oracle (two engines over ~2700 states) skipped in -short")
	}
	mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cached, uncached, reqs := cacheOracleEngines(t, mall, voc, idx, 23, 2, 0.7)
	cacheOracle(t, cached, uncached, reqs, 50_000)
}

// TestCacheKeywordOrderIsKeyed pins the keyword-order rule of the cache
// key end to end: a repeat with its keywords reordered is a different key —
// it misses, runs the searcher, and answers byte-identical to an uncached
// search of the reordered request, sims in its own keyword order — and a
// verbatim repeat of the reordered request then hits without running
// anything.
func TestCacheKeywordOrderIsKeyed(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cached, uncached, reqs := cacheOracleEngines(t, mall, voc, idx, 29, 6, 0)
	rc := cached.ResultCache()
	opt := search.Options{Algorithm: search.ToE}
	tested := 0
	for i, req := range reqs {
		perm := req
		perm.QW = slices.Clone(req.QW)
		slices.Reverse(perm.QW)
		if slices.Equal(perm.QW, req.QW) {
			continue // fewer than two keywords, or a palindromic list
		}
		tested++
		if _, err := cached.Search(req, opt); err != nil {
			t.Fatal(err)
		}
		want, err := uncached.Search(perm, opt)
		if err != nil {
			t.Fatal(err)
		}

		execs, hits := cached.Executions(), rc.Stats().Hits
		got, err := cached.Search(perm, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Stats().Hits != hits || cached.Executions() != execs+1 {
			t.Errorf("req %d: reordered keywords hit the original's cache slot", i)
		}
		if err := sameCachedResult(got, want); err != nil {
			t.Errorf("req %d: reordered-keyword miss diverged from uncached: %v", i, err)
		}

		execs, hits = cached.Executions(), rc.Stats().Hits
		again, err := cached.Search(perm, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Stats().Hits != hits+1 || cached.Executions() != execs {
			t.Errorf("req %d: verbatim repeat of the reordered request did not hit", i)
		}
		if again != got {
			t.Errorf("req %d: hit did not return the stored result", i)
		}
	}
	if tested == 0 {
		t.Fatal("workload produced no multi-keyword request; keyword order untested")
	}
}

// TestCacheConcurrentMatchesSerial is the -race gate: goroutines hammer
// one cache-enabled engine with a small repeating workload (so hits,
// misses and singleflight collapses all occur) and every result must
// equal the serial uncached reference.
func TestCacheConcurrentMatchesSerial(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	cached, uncached, reqs := cacheOracleEngines(t, mall, voc, idx, 5, 2, 0)
	overlays := cacheOverlays(mall.Space, 303)
	opts := []search.Options{{Algorithm: search.ToE}, {Algorithm: search.KoE}}

	type job struct {
		req  search.Request
		opt  search.Options
		want *search.Result
	}
	var jobs []job
	for _, ov := range overlays {
		for _, req := range reqs {
			req.Conditions = ov.cond
			for _, opt := range opts {
				want, err := uncached.Search(req, opt)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job{req, opt, want})
			}
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range jobs {
					j := &jobs[(i+g)%len(jobs)]
					res, err := cached.Search(j.req, j.opt)
					if err != nil {
						errs[g] = err
						return
					}
					if err := sameCachedResult(res, j.want); err != nil {
						errs[g] = fmt.Errorf("goroutine %d round %d: %v", g, round, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	st := cached.ResultCache().Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("workload exercised no cache traffic: %+v", st)
	}
}

// TestCacheInvalidationOnPopularityChange pins the one engine-level
// mutation the library exposes: SetPopularity must invalidate the cache,
// and post-change queries must match an uncached engine with the same
// popularity state.
func TestCacheInvalidationOnPopularityChange(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 13)
	if err != nil {
		t.Fatal(err)
	}
	cached, uncached, reqs := cacheOracleEngines(t, mall, voc, idx, 31, 2, 0)
	opt := search.Options{Algorithm: search.ToE, PopularityWeight: 0.3}
	pop := make(map[model.PartitionID]float64, mall.Space.NumPartitions())
	for i := 0; i < mall.Space.NumPartitions(); i++ {
		pop[model.PartitionID(i)] = float64(i%10) / 10
	}

	for i, req := range reqs {
		if _, err := cached.Search(req, opt); err != nil {
			t.Fatal(err)
		}
		epoch := cached.ResultCache().Epoch()
		cached.SetPopularity(pop)
		uncached.SetPopularity(pop)
		if cached.ResultCache().Epoch() == epoch {
			t.Fatal("SetPopularity did not bump the cache epoch")
		}
		want, err := uncached.Search(req, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.Search(req, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCachedResult(got, want); err != nil {
			t.Errorf("req %d served a stale pre-popularity result: %v", i, err)
		}
		cached.SetPopularity(nil)
		uncached.SetPopularity(nil)
	}
}
