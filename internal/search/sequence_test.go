// Sequence-planner gates: the layered beam-stitching planner must return
// routes byte-identical to the exhaustive cross-product baseline across
// both evaluation malls and bare/closure/delay overlays, rebuild every route
// from its stage records exactly as re-running the stages would (beam runs
// included, which the baseline cannot judge), stay deterministic under
// concurrent distinct overlays, and integrate with the result cache.
// External test package for the same reason as the overlay oracles: the
// tests drive the search through internal/gen.
package search_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

// sequenceInstances draws n sequence queries over an engine's index layer.
func sequenceInstances(t *testing.T, eng *search.Engine, seed uint64, n int, cfg gen.SequenceSampleConfig) []search.SequenceRequest {
	t.Helper()
	sp := gen.NewSampler(eng.Space(), eng.Keywords(), eng.PathFinder(), seed)
	reqs, err := sp.SequenceInstances(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// sequenceOverlays returns the three gate overlays: bare, closures only,
// delays only.
func sequenceOverlays(s *model.Space, seed uint64) map[string]*model.Conditions {
	return map[string]*model.Conditions{
		"bare":    nil,
		"closure": gen.SampleConditions(s, seed, gen.ConditionsConfig{Closures: 3}),
		"delay":   gen.SampleConditions(s, seed+1, gen.ConditionsConfig{Delays: 4, MinDelay: 5, MaxDelay: 60}),
	}
}

// sequenceOracle requires planner ≡ baseline on every (request, overlay)
// combination.
func sequenceOracle(t *testing.T, eng *search.Engine, reqs []search.SequenceRequest, overlays map[string]*model.Conditions) {
	t.Helper()
	for name, cond := range overlays {
		for i, req := range reqs {
			req.Conditions = cond
			got, err := eng.SearchSequence(req)
			if err != nil {
				t.Fatalf("%s req %d: planner: %v", name, i, err)
			}
			want, err := eng.ExhaustiveSequence(req)
			if err != nil {
				t.Fatalf("%s req %d: baseline: %v", name, i, err)
			}
			if !reflect.DeepEqual(got.Routes, want.Routes) {
				t.Errorf("%s req %d: planner routes diverged from exhaustive baseline\nplanner:  %+v\nbaseline: %+v",
					name, i, got.Routes, want.Routes)
			}
			if got.Stats.Truncated {
				t.Errorf("%s req %d: exact planner (Beam 0) reported truncation", name, i)
			}
		}
	}
}

// TestSequenceOracleSynthetic is the acceptance gate on the synthetic
// evaluation mall.
func TestSequenceOracleSynthetic(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.Precompute()
	reqs := sequenceInstances(t, eng, 23, 4, gen.DefaultSequenceSampleConfig())
	sequenceOracle(t, eng, reqs, sequenceOverlays(mall.Space, 1013))
}

// TestSequenceOracleReal is the same gate on the simulated Hangzhou mall,
// at the serving traffic shape (3 legs, k = 4).
func TestSequenceOracleReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mall sequence oracle skipped in -short")
	}
	mall, _, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	reqs := sequenceInstances(t, eng, 29, 8, gen.DefaultSequenceSampleConfig())
	sequenceOracle(t, eng, reqs, sequenceOverlays(mall.Space, 4447))
}

// requireReferenceRoutes re-derives every returned route from its waypoints
// with the baseline's re-running reconstruction and requires it identical
// to the route the planner assembled from its stage records.
func requireReferenceRoutes(t *testing.T, eng *search.Engine, req search.SequenceRequest, routes []search.SequenceRoute, label string) {
	t.Helper()
	for i, r := range routes {
		want, ok := search.ReferenceSequenceRoute(eng, req, r.Waypoints)
		if !ok {
			t.Errorf("%s route %d: waypoints %v are no feasible plan", label, i, r.Waypoints)
			continue
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("%s route %d: recorded route diverged from the re-run stages\nrecorded: %+v\nre-run:   %+v",
				label, i, r, want)
		}
	}
}

// TestSequenceRecordedRoutes holds the planner's recorded reconstruction to
// the re-running one on both malls × bare/closure/delay × Beam ∈ {0, 1, 3}.
// Beam runs may return other plans than the exact top k, which the planner ≡
// baseline gate cannot judge; this per-route check can.
func TestSequenceRecordedRoutes(t *testing.T) {
	type venue struct {
		name string
		eng  *search.Engine
		seed uint64
	}
	synth, _, sidx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	venues := []venue{{"synthetic", search.NewEngine(synth.Space, sidx), 61}}
	if !testing.Short() {
		rmall, _, ridx, err := gen.RealMall(gen.RealConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		venues = append(venues, venue{"real", search.NewEngine(rmall.Space, ridx), 67})
	}
	for _, v := range venues {
		reqs := sequenceInstances(t, v.eng, v.seed, 4, gen.DefaultSequenceSampleConfig())
		for name, cond := range sequenceOverlays(v.eng.Space(), v.seed*7) {
			for _, beam := range []int{0, 1, 3} {
				for i, req := range reqs {
					req.Conditions = cond
					req.Beam = beam
					res, err := v.eng.SearchSequence(req)
					if err != nil {
						t.Fatalf("%s %s beam %d req %d: %v", v.name, name, beam, i, err)
					}
					requireReferenceRoutes(t, v.eng, req, res.Routes,
						fmt.Sprintf("%s %s beam %d req %d", v.name, name, beam, i))
				}
			}
		}
	}
}

// TestSequenceRecordedRoutesBuiltCases drives the branches the recorded
// reconstruction handles apart from a plain walk, which sampled requests
// rarely reach: leg 0 satisfied in place, every leg satisfied in place
// with ps and pt sharing a partition (the zero-door direct segment wins),
// and a candidate made unreachable by a closure. Each case must match the
// exhaustive baseline and the re-running reconstruction.
func TestSequenceRecordedRoutesBuiltCases(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	s := eng.Space()
	base := sequenceInstances(t, eng, 71, 1, gen.DefaultSequenceSampleConfig())[0]
	base.K = 10
	base.Delta = 1e6 // keep every plan feasible: the cases move ps and pt

	// shop and word: the first room with a word that makes it one of at
	// least two leg candidates, so a leg on word keeps a candidate when shop
	// is closed off.
	shop, word := model.NoPartition, ""
	for _, p := range s.Partitions() {
		iw, tws, ok := idx.PartitionWords(p.ID)
		if p.Kind != model.KindRoom || !ok {
			continue
		}
		words := []string{idx.IWord(iw)}
		for _, tw := range tws {
			words = append(words, idx.TWord(tw))
		}
		for _, w := range words {
			cands := idx.CompileQuery([]string{w}, base.Tau).KeyPartitions()
			if len(cands) > 1 && slices.Contains(cands, p.ID) {
				shop, word = p.ID, w
				break
			}
		}
		if shop != model.NoPartition {
			break
		}
	}
	if shop == model.NoPartition {
		t.Fatal("synthetic mall has no room sharing a candidate word with another")
	}
	inside := s.Partition(shop).Bounds.Center()
	if s.HostPartition(inside) != shop {
		t.Fatalf("center of partition %d is hosted by %d", shop, s.HostPartition(inside))
	}
	near := inside
	near.X += s.Partition(shop).Bounds.Width() / 4

	check := func(t *testing.T, req search.SequenceRequest) []search.SequenceRoute {
		t.Helper()
		got, err := eng.SearchSequence(req)
		if err != nil {
			t.Fatalf("planner: %v", err)
		}
		want, err := eng.ExhaustiveSequence(req)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		if !reflect.DeepEqual(got.Routes, want.Routes) {
			t.Errorf("planner routes diverged from exhaustive baseline\nplanner:  %+v\nbaseline: %+v",
				got.Routes, want.Routes)
		}
		requireReferenceRoutes(t, eng, req, got.Routes, t.Name())
		if len(got.Routes) == 0 {
			t.Fatal("no routes")
		}
		return got.Routes
	}

	t.Run("leg0InPlace", func(t *testing.T) {
		req := base
		req.Ps = inside
		req.Legs = append([]search.SequenceLeg{{QW: []string{word}}}, base.Legs[1:]...)
		found := false
		for _, r := range check(t, req) {
			found = found || r.Waypoints[0] == shop
		}
		if !found {
			t.Errorf("no route satisfies leg 0 in place at partition %d", shop)
		}
	})

	t.Run("allInPlaceDirect", func(t *testing.T) {
		req := base
		req.Ps, req.Pt = inside, near
		req.Legs = []search.SequenceLeg{{QW: []string{word}}, {QW: []string{word}}, {QW: []string{word}}}
		r := check(t, req)[0]
		if !slices.Equal(r.Waypoints, []model.PartitionID{shop, shop, shop}) || r.Doors != nil || r.Entered != nil {
			t.Errorf("best route = %+v, want the zero-door direct segment via %d", r, shop)
		}
		if want := inside.Dist(near); r.Dist != want {
			t.Errorf("direct route distance = %v, want %v", r.Dist, want)
		}
	})

	t.Run("closedCandidate", func(t *testing.T) {
		req := base
		req.Legs = append([]search.SequenceLeg{{QW: []string{word}}}, base.Legs[1:]...)
		req.Conditions = model.NewConditions().Close(s.Partition(shop).EnterDoors()...)
		for _, r := range check(t, req) {
			if slices.Contains(r.Waypoints, shop) {
				t.Errorf("route %v visits partition %d behind closed doors", r.Waypoints, shop)
			}
		}
	})
}

// TestSequenceConcurrentDistinctOverlays shares one engine between
// goroutines that each interleave route and sequence queries under their
// own overlay, so both query kinds load distinct overlays into the one
// scratch pool at once; every result must match its serial reference byte
// for byte. Run under -race in CI.
func TestSequenceConcurrentDistinctOverlays(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	cfg := gen.DefaultSequenceSampleConfig()
	cfg.Legs = 2
	baseSeqs := sequenceInstances(t, eng, 31, 2, cfg)
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 31)
	qcfg := gen.DefaultQueryConfig(31)
	qcfg.Instances = 2
	baseRoutes, err := qg.Instances(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := search.Options{Algorithm: search.KoE}

	const workers = 4
	seqs := make([][]search.SequenceRequest, workers)
	routes := make([][]search.Request, workers)
	wantSeq := make([][]*search.SequenceResult, workers)
	wantRoute := make([][]*search.Result, workers)
	for w := 0; w < workers; w++ {
		cond := gen.SampleConditions(mall.Space, 177+uint64(w)*13,
			gen.ConditionsConfig{Closures: 2, Delays: 2, MinDelay: 5, MaxDelay: 50})
		for _, r := range baseSeqs {
			r.Conditions = cond
			res, err := eng.SearchSequence(r)
			if err != nil {
				t.Fatal(err)
			}
			seqs[w] = append(seqs[w], r)
			wantSeq[w] = append(wantSeq[w], res)
		}
		for _, r := range baseRoutes {
			r.Conditions = cond
			res, err := eng.Search(r, opt)
			if err != nil {
				t.Fatal(err)
			}
			routes[w] = append(routes[w], r)
			wantRoute[w] = append(wantRoute[w], res)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range max(len(seqs[w]), len(routes[w])) {
					if i < len(routes[w]) {
						res, err := eng.Search(routes[w][i], opt)
						if err != nil {
							errs[w] = err
							return
						}
						if !reflect.DeepEqual(res.Routes, wantRoute[w][i].Routes) {
							errs[w] = fmt.Errorf("worker %d round %d route req %d: routes diverged from serial reference", w, round, i)
							return
						}
					}
					if i < len(seqs[w]) {
						res, err := eng.SearchSequence(seqs[w][i])
						if err != nil {
							errs[w] = err
							return
						}
						if !reflect.DeepEqual(res.Routes, wantSeq[w][i].Routes) {
							errs[w] = fmt.Errorf("worker %d round %d sequence req %d: routes diverged from serial reference", w, round, i)
							return
						}
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

// TestSequenceResultCache checks the sequence path of the shared result
// cache: repeats hit (returning the shared result), a conditions mutation
// misses, and invalidation drops the entry.
func TestSequenceResultCache(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	cache := eng.EnableResultCache(search.CacheOptions{})
	cfg := gen.DefaultSequenceSampleConfig()
	cfg.Legs = 2
	req := sequenceInstances(t, eng, 41, 1, cfg)[0]

	execs := eng.Executions()
	first, err := eng.SearchSequence(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Executions(); got != execs+1 {
		t.Fatalf("a sequence miss counted %d executions, want 1", got-execs)
	}
	second, err := eng.SearchSequence(req)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("repeated sequence query did not return the cached result")
	}
	if got := eng.Executions(); got != execs+1 {
		t.Fatal("a sequence cache hit counted an execution")
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", s.Hits, s.Misses)
	}

	mut := req
	mut.Conditions = model.NewConditions().Delay(0, 5)
	if _, err := eng.SearchSequence(mut); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 2 {
		t.Fatalf("conditions mutation did not miss (misses = %d)", s.Misses)
	}

	cache.Invalidate()
	third, err := eng.SearchSequence(req)
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Fatal("invalidation did not drop the cached sequence result")
	}
	if !reflect.DeepEqual(first.Routes, third.Routes) {
		t.Fatal("re-executed sequence query diverged from its earlier result")
	}
}

// TestSequenceValidation covers the request-shape errors.
func TestSequenceValidation(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	good := sequenceInstances(t, eng, 43, 1, gen.DefaultSequenceSampleConfig())[0]
	if err := eng.ValidateSequence(good); err != nil {
		t.Fatalf("sampled request invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*search.SequenceRequest)
		want string
	}{
		{"no legs", func(r *search.SequenceRequest) { r.Legs = nil }, "at least one leg"},
		{"too many legs", func(r *search.SequenceRequest) {
			r.Legs = make([]search.SequenceLeg, search.MaxSequenceLegs+1)
			for i := range r.Legs {
				r.Legs[i] = search.SequenceLeg{QW: []string{"w"}}
			}
		}, "at most"},
		{"empty leg", func(r *search.SequenceRequest) { r.Legs[0].QW = nil }, "no keywords"},
		{"bad k", func(r *search.SequenceRequest) { r.K = 0 }, "k must be"},
		{"bad beam", func(r *search.SequenceRequest) { r.Beam = -1 }, "beam"},
		{"bad delta", func(r *search.SequenceRequest) { r.Delta = 0 }, "Δ"},
	}
	for _, tc := range cases {
		r := good
		r.Legs = append([]search.SequenceLeg(nil), good.Legs...)
		tc.mut(&r)
		err := eng.ValidateSequence(r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSequenceUnknownKeywordLeg: a leg whose keywords match nothing has no
// candidate waypoints, so the query returns zero routes without error.
func TestSequenceUnknownKeywordLeg(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	req := sequenceInstances(t, eng, 47, 1, gen.DefaultSequenceSampleConfig())[0]
	req.Legs = []search.SequenceLeg{{QW: []string{"no-such-keyword-anywhere"}}}
	res, err := eng.SearchSequence(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 0 {
		t.Fatalf("got %d routes for an unsatisfiable leg, want 0", len(res.Routes))
	}
}

// TestSequenceBeamSmoke: a beam-limited run completes, stays within k, and
// reports truncation iff it dropped prefixes.
func TestSequenceBeamSmoke(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	req := sequenceInstances(t, eng, 53, 1, gen.DefaultSequenceSampleConfig())[0]
	req.Beam = 1
	res, err := eng.SearchSequence(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) > req.K {
		t.Fatalf("beam run returned %d routes, k = %d", len(res.Routes), req.K)
	}
	if res.Stats.Truncated != (res.Stats.BeamDropped > 0) {
		t.Fatalf("Truncated = %v with BeamDropped = %d", res.Stats.Truncated, res.Stats.BeamDropped)
	}
}
