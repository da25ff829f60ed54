package search

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"ikrq/internal/geom"
)

// batchCases are valid requests spanning the oracle workload, repeated so a
// batch is larger than any sane worker count.
func batchCases() []Request {
	var reqs []Request
	for i := 0; i < 4; i++ {
		for _, tc := range oracleCases {
			reqs = append(reqs, tc.req)
		}
	}
	return reqs
}

// sameBatch asserts two result slices are byte-for-byte identical per slot:
// scores, distances, door sequences, entered partitions, KP sequences and
// sims vectors.
func sameBatch(t *testing.T, name string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range got {
		if (got[i] == nil) != (want[i] == nil) {
			t.Errorf("%s[%d]: nil mismatch", name, i)
			continue
		}
		if got[i] == nil {
			continue
		}
		if !reflect.DeepEqual(got[i].Routes, want[i].Routes) {
			t.Errorf("%s[%d]: routes differ\n got: %+v\nwant: %+v", name, i, got[i].Routes, want[i].Routes)
		}
	}
}

func TestSearchBatchMatchesSerialLoop(t *testing.T) {
	e := testMall(t)
	reqs := batchCases()
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"ToE", Options{Algorithm: ToE}},
		{"KoE", Options{Algorithm: KoE}},
		{"KoE*", Options{Algorithm: KoE, Precompute: true}},
	} {
		want := make([]*Result, len(reqs))
		for i, r := range reqs {
			res, err := e.Search(r, cfg.opt)
			if err != nil {
				t.Fatalf("%s: serial: %v", cfg.name, err)
			}
			want[i] = res
		}
		for _, workers := range []int{1, 4, 16} {
			got, err := e.SearchBatch(reqs, cfg.opt, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s/w%d: %v", cfg.name, workers, err)
			}
			sameBatch(t, cfg.name, got, want)
		}
	}
}

// TestConcurrentSearchMatchesSerial hammers one engine from many goroutines
// — mixing direct Search calls and SearchBatch slices, including KoE* whose
// matrix initializes lazily under the race — and asserts every result equals
// the serial reference. Run with -race this is the concurrency-safety gate.
func TestConcurrentSearchMatchesSerial(t *testing.T) {
	e := testMall(t) // fresh engine: Matrix() not yet built
	reqs := batchCases()
	opts := []Options{
		{Algorithm: ToE},
		{Algorithm: KoE},
		{Algorithm: KoE, Precompute: true},
	}
	want := make([][]*Result, len(opts))
	ref := testMall(t) // separate engine so the racing one starts cold
	for oi, opt := range opts {
		want[oi] = make([]*Result, len(reqs))
		for i, r := range reqs {
			res, err := ref.Search(r, opt)
			if err != nil {
				t.Fatal(err)
			}
			want[oi][i] = res
		}
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := opts[g%len(opts)]
			wantRes := want[g%len(opts)]
			if g%2 == 0 {
				for i, r := range reqs {
					res, err := e.Search(r, opt)
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(res.Routes, wantRes[i].Routes) {
						t.Errorf("goroutine %d: request %d diverged under concurrency", g, i)
						return
					}
				}
			} else {
				got, err := e.SearchBatch(reqs, opt, BatchOptions{Workers: 3})
				if err != nil {
					errc <- err
					return
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Routes, wantRes[i].Routes) {
						t.Errorf("goroutine %d: batch slot %d diverged under concurrency", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPooledScratchReuseIsDeterministic reruns one query enough times to
// cycle the engine's scratch pool and checks the results never drift —
// the guard against stale state surviving a scratch reset.
func TestPooledScratchReuseIsDeterministic(t *testing.T) {
	e := testMall(t)
	for _, tc := range oracleCases {
		first, err := e.Search(tc.req, Options{Algorithm: ToE})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			res, err := e.Search(tc.req, Options{Algorithm: ToE})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Routes, first.Routes) {
				t.Fatalf("%s: run %d differs from first run", tc.name, i)
			}
			if !reflect.DeepEqual(res.Stats.Pops, first.Stats.Pops) ||
				res.Stats.StampsCreated != first.Stats.StampsCreated {
				t.Fatalf("%s: run %d did different work: %+v vs %+v",
					tc.name, i, res.Stats, first.Stats)
			}
		}
	}
}

// brandNewEngine returns an engine over e's index layer (and whichever
// KoE* backend e has built) whose scratch pool has never run a query, so its
// first search runs on never-used scratch.
func brandNewEngine(t testing.TB, e *Engine) *Engine {
	t.Helper()
	ne, err := NewEngineFromParts(e.s, e.x, e.pf, e.sk, e.MatrixIfReady(), e.OracleIfReady())
	if err != nil {
		t.Fatal(err)
	}
	return ne
}

// sameRouteAndWork requires identical routes and every Stats field but
// Elapsed equal.
func sameRouteAndWork(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Routes, want.Routes) {
		t.Errorf("%s: routes differ\n got: %+v\nwant: %+v", name, got.Routes, want.Routes)
	}
	gs, ws := got.Stats, want.Stats
	gs.Elapsed, ws.Elapsed = 0, 0
	if gs != ws {
		t.Errorf("%s: work counters differ\n got: %+v\nwant: %+v", name, gs, ws)
	}
}

// TestPooledMatchesFresh pins scratch reuse: every query on an engine whose
// pooled scratch the previous, different query just used must equal the
// same query on a brand-new engine, in routes and work counters.
func TestPooledMatchesFresh(t *testing.T) {
	e := testMall(t)
	for _, v := range Variants() {
		opt, err := OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		opt.MaxExpansions = 20_000 // keeps ToE\P finite
		for _, tc := range oracleCases {
			churned, err := e.Search(tc.req, opt)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := brandNewEngine(t, e).Search(tc.req, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameRouteAndWork(t, string(v)+"/"+tc.name, churned, fresh)
		}
	}
}

func TestSearchBatchPartialErrors(t *testing.T) {
	e := testMall(t)
	good := req([]string{"coffee"}, 3, 80)
	bad := good
	bad.Ps = geom.Pt(-500, -500, 0) // outside every partition
	reqs := []Request{good, bad, good}

	results, err := e.SearchBatch(reqs, Options{Algorithm: ToE}, BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("invalid request produced no error")
	}
	if !strings.Contains(err.Error(), "request 1") {
		t.Errorf("error does not name the failing slot: %v", err)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("valid requests not executed")
	}
	if results[1] != nil {
		t.Error("invalid request produced a result")
	}
}

func TestSearchBatchRejectsBadOptions(t *testing.T) {
	e := testMall(t)
	reqs := []Request{req([]string{"coffee"}, 3, 80)}
	if _, err := e.SearchBatch(reqs, Options{Algorithm: KoE, DisablePrime: true}, BatchOptions{}); err == nil {
		t.Error("KoE+DisablePrime accepted by SearchBatch")
	}
	if _, err := e.SearchBatch(reqs, Options{Algorithm: ToE, Precompute: true}, BatchOptions{}); err == nil {
		t.Error("ToE+Precompute accepted by SearchBatch")
	}
	// Empty batches and degenerate worker counts are fine.
	if res, err := e.SearchBatch(nil, Options{Algorithm: ToE}, BatchOptions{Workers: -3}); err != nil || len(res) != 0 {
		t.Errorf("empty batch: res=%v err=%v", res, err)
	}
}

func TestQueryCacheSharedAcrossSearches(t *testing.T) {
	e := testMall(t)
	r := req([]string{"coffee", "laptop"}, 3, 100)
	for i := 0; i < 5; i++ {
		if _, err := e.Search(r, Options{Algorithm: ToE}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.QueryCache().Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one compile for five identical queries)", st.Misses)
	}
	if st.Hits != 4 {
		t.Errorf("hits = %d, want 4", st.Hits)
	}
}

// BenchmarkRepeatedQueryPooled measures the scratch pool on a repeated query
// (run with -benchmem): door bitmaps, heap, prime table, collector, stamp
// and sims storage and the compiled query are all reused across calls.
func BenchmarkRepeatedQueryPooled(b *testing.B) {
	e := testMall(b)
	r := req([]string{"coffee", "laptop"}, 3, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(r, Options{Algorithm: ToE}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchBatchWorkers(b *testing.B) {
	e := testMall(b)
	reqs := batchCases()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.SearchBatch(reqs, Options{Algorithm: ToE}, BatchOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
