// Benchmarks regenerating the paper's evaluation figures. Each benchmark
// wraps one figure of Section V (see DESIGN.md's experiment index); the
// series are printed on the first iteration so `go test -bench` output
// doubles as the experiment log. The full-size sweeps live behind
// cmd/ikrqbench; these benches run the Quick workload so the whole suite
// completes in minutes.
package ikrq_test

import (
	"os"
	"sync"
	"testing"

	"ikrq/internal/bench"
	"ikrq/internal/gen"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *bench.Env
)

func env() *bench.Env {
	benchEnvOnce.Do(func() {
		cfg := bench.QuickConfig(1)
		benchEnv = bench.NewEnv(cfg)
	})
	return benchEnv
}

// runFigure measures one full figure computation per iteration and prints
// the series once.
func runFigure(b *testing.B, f func() (*bench.Figure, error)) {
	b.Helper()
	printed := false
	for i := 0; i < b.N; i++ {
		fig, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if !printed {
			fig.Fprint(os.Stdout)
			printed = true
		}
	}
}

func BenchmarkFig04Default(b *testing.B)    { runFigure(b, env().Fig04Default) }
func BenchmarkFig05K(b *testing.B)          { runFigure(b, env().Fig05K) }
func BenchmarkFig06QW(b *testing.B)         { runFigure(b, env().Fig06QW) }
func BenchmarkFig07QWMem(b *testing.B)      { runFigure(b, env().Fig07QWMem) }
func BenchmarkFig08Eta(b *testing.B)        { runFigure(b, env().Fig08Eta) }
func BenchmarkFig09EtaMem(b *testing.B)     { runFigure(b, env().Fig09EtaMem) }
func BenchmarkFig10Beta(b *testing.B)       { runFigure(b, env().Fig10Beta) }
func BenchmarkFig11Floors(b *testing.B)     { runFigure(b, env().Fig11Floors) }
func BenchmarkFig12S2T(b *testing.B)        { runFigure(b, env().Fig12S2T) }
func BenchmarkFig13KoEStar(b *testing.B)    { runFigure(b, env().Fig13KoEStar) }
func BenchmarkFig14KoEStarMem(b *testing.B) { runFigure(b, env().Fig14KoEStarMem) }
func BenchmarkFig15NoPrime(b *testing.B)    { runFigure(b, env().Fig15NoPrime) }
func BenchmarkFig16HomogRate(b *testing.B)  { runFigure(b, env().Fig16HomogRate) }
func BenchmarkFig17RealQW(b *testing.B)     { runFigure(b, env().Fig17RealQW) }
func BenchmarkFig18RealQWMem(b *testing.B)  { runFigure(b, env().Fig18RealQWMem) }
func BenchmarkFig19RealEta(b *testing.B)    { runFigure(b, env().Fig19RealEta) }
func BenchmarkFig20RealHomogRate(b *testing.B) {
	runFigure(b, env().Fig20RealHomogRate)
}
func BenchmarkSweepAlpha(b *testing.B) { runFigure(b, env().SweepAlpha) }
func BenchmarkSweepTau(b *testing.B)   { runFigure(b, env().SweepTau) }

// BenchmarkSearch* measure the per-query hot path of the core Table III
// variants on the 2-floor synthetic mall (run with -benchmem): one batch of
// generated query instances per iteration. These are the allocation gates
// for the graph kernel — ToE exercises the stamp machinery, KoE the
// multi-seed Dijkstra trees, KoE* the matrix reads plus tail recomputes.
func benchSearchVariant(b *testing.B, v search.Variant) {
	w, err := env().Synthetic(2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gen.DefaultQueryConfig(17)
	cfg.Instances = 3
	reqs, err := w.QGen.Instances(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := search.OptionsFor(v)
	if err != nil {
		b.Fatal(err)
	}
	if opt.Precompute {
		w.Engine.Precompute() // pay the build outside the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := w.Engine.Search(r, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSearchToE(b *testing.B)     { benchSearchVariant(b, search.VariantToE) }
func BenchmarkSearchKoE(b *testing.B)     { benchSearchVariant(b, search.VariantKoE) }
func BenchmarkSearchKoEStar(b *testing.B) { benchSearchVariant(b, search.VariantKoEStar) }

// BenchmarkSearchSequence measures the sequence planner on the same 2-floor
// synthetic mall (run with -benchmem): one batch of sampled sequence queries
// at the serving defaults (3 legs, k = 4) per iteration. dijkstras/op counts
// the chained shortest-path stages the batch runs — planning stages only,
// since routes are assembled from the stage records.
func BenchmarkSearchSequence(b *testing.B) {
	w, err := env().Synthetic(2)
	if err != nil {
		b.Fatal(err)
	}
	sp := gen.NewSampler(w.Engine.Space(), w.Engine.Keywords(), w.Engine.PathFinder(), 17)
	reqs, err := sp.SequenceInstances(3, gen.DefaultSequenceSampleConfig())
	if err != nil {
		b.Fatal(err)
	}
	w.Engine.Precompute() // the Δ bound's backend build stays outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	dijkstras := 0
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			res, err := w.Engine.SearchSequence(r)
			if err != nil {
				b.Fatal(err)
			}
			dijkstras += res.Stats.Dijkstras
		}
	}
	b.ReportMetric(float64(dijkstras)/float64(b.N), "dijkstras/op")
}

// BenchmarkConditionsOverlayVsRebuild measures the tentpole win of the
// Conditions overlay: answering a closure scenario by attaching an overlay
// to the query (unchanged engine) versus rebuilding a door-filtered engine
// and querying it — the same ~seconds-scale derivation cost
// BenchmarkEngineColdStart's rebuild path pays. The overlay turns a
// per-scenario index rebuild into a per-query flag.
func BenchmarkConditionsOverlayVsRebuild(b *testing.B) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		b.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	qg := gen.NewQueryGen(mall, idx, voc, eng.PathFinder(), 23)
	cfg := gen.DefaultQueryConfig(23)
	cfg.Instances = 1
	reqs, err := qg.Instances(cfg)
	if err != nil {
		b.Fatal(err)
	}
	req := reqs[0]
	cond := gen.SampleConditions(mall.Space, 99, gen.ConditionsConfig{Closures: 4, Rebuildable: true})
	opt := search.Options{Algorithm: search.ToE}

	b.Run("overlay", func(b *testing.B) {
		r := req
		r.Conditions = cond
		for i := 0; i < b.N; i++ {
			if _, err := eng.Search(r, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild+query", func(b *testing.B) {
		rec := mall.Space.Export()
		for i := 0; i < b.N; i++ {
			frec, _ := rec.WithoutDoors(cond.ClosedDoors())
			fs, err := model.SpaceFromRecord(frec)
			if err != nil {
				b.Fatal(err)
			}
			feng := search.NewEngine(fs, idx)
			if _, err := feng.Search(req, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationConnect quantifies the DESIGN.md §4.1 deviation: the
// exact connect (finalized stamps re-queued) versus the paper-literal
// Algorithm 5 (StrictPaperConnect). Exactness costs extra expansions;
// this ablation measures how many.
func BenchmarkAblationConnect(b *testing.B) {
	w, err := env().Synthetic(5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gen.DefaultQueryConfig(33)
	cfg.Instances = 3
	reqs, err := w.QGen.Instances(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		strict bool
	}{{"exact", false}, {"strict-paper", true}} {
		b.Run(mode.name, func(b *testing.B) {
			pops := 0
			for i := 0; i < b.N; i++ {
				for _, r := range reqs {
					res, err := w.Engine.Search(r, search.Options{
						Algorithm:          search.ToE,
						StrictPaperConnect: mode.strict,
					})
					if err != nil {
						b.Fatal(err)
					}
					pops += res.Stats.Pops
				}
			}
			b.ReportMetric(float64(pops)/float64(b.N*len(reqs)), "pops/query")
		})
	}
}
