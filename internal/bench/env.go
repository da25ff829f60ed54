// Package bench is the experiment harness of Section V: it regenerates
// every figure of the paper's evaluation (Fig. 4–20 plus the α and τ
// sweeps whose plots the paper omits) as numeric series. Each figure
// function returns a Figure whose series can be printed as a table or
// asserted on by tests.
//
// Absolute numbers differ from the paper (different hardware and runtime);
// the harness is built to reproduce the figures' shapes: which variant
// wins, how costs scale with k, |QW|, β, η, δs2t and floors, and where the
// qualitative effects (KoE* recomputation penalty, ToE\P homogeneity) kick
// in. EXPERIMENTS.md records the measured shapes next to the paper's.
package bench

import (
	"fmt"
	"time"

	"ikrq/internal/gen"
	"ikrq/internal/keyword"
	"ikrq/internal/search"
)

// Config controls workload sizes. The paper runs 10 instances per setting
// and 5 runs per instance; Quick mode shrinks both so the full suite fits
// in a testing.B iteration.
type Config struct {
	Seed      uint64
	Instances int
	Runs      int

	// CapExpansions bounds the expansions of every variant's run, as the
	// daemon's work cap does. The unpruned ToE\P needs it most (the paper
	// lets it run for up to ~10^6 ms), but a pruned variant can run away
	// too: Rule 4 cannot prune before k routes complete. A series that a
	// cap truncated says so in its note.
	CapExpansions int

	// Workers is the concurrency of the batch executor the harness feeds
	// figure instances through. The default 1 keeps per-query times free of
	// contention (the figures plot per-query Elapsed); raising it shortens
	// a sweep's wall time at the cost of noisier timing cells.
	Workers int
}

// DefaultConfig mirrors the paper's repetition counts.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, Instances: 10, Runs: 5, CapExpansions: 300_000, Workers: 1}
}

// QuickConfig is a reduced load for smoke benches.
func QuickConfig(seed uint64) Config {
	return Config{Seed: seed, Instances: 3, Runs: 1, CapExpansions: 50_000, Workers: 1}
}

// Env caches generated spaces and engines across figures.
type Env struct {
	Cfg Config

	synth map[int]*Workload // by floor count
	real  *Workload
}

// Workload bundles a generated mall with its engine and query generator.
type Workload struct {
	Mall   *gen.Mall
	Vocab  *gen.Vocabulary
	Index  *keyword.Index
	Engine *search.Engine
	QGen   *gen.QueryGen
	// Real marks the simulated Hangzhou dataset (α defaults to 0.7 there,
	// Section V-B).
	Real bool
}

// NewEnv returns an empty environment; workloads build lazily.
func NewEnv(cfg Config) *Env {
	return &Env{Cfg: cfg, synth: make(map[int]*Workload)}
}

// Synthetic returns (building if needed) the synthetic workload with the
// given floor count.
func (e *Env) Synthetic(floors int) (*Workload, error) {
	if w, ok := e.synth[floors]; ok {
		return w, nil
	}
	m, v, x, err := gen.SyntheticMall(floors, e.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	eng := search.NewEngine(m.Space, x)
	w := &Workload{
		Mall:   m,
		Vocab:  v,
		Index:  x,
		Engine: eng,
		QGen:   gen.NewQueryGen(m, x, v, eng.PathFinder(), e.Cfg.Seed+uint64(floors)),
	}
	e.synth[floors] = w
	return w, nil
}

// Real returns (building if needed) the simulated Hangzhou workload.
func (e *Env) Real() (*Workload, error) {
	if e.real != nil {
		return e.real, nil
	}
	m, v, x, err := gen.RealMall(gen.RealConfig{Seed: e.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	eng := search.NewEngine(m.Space, x)
	e.real = &Workload{
		Mall:   m,
		Vocab:  v,
		Index:  x,
		Engine: eng,
		QGen:   gen.NewQueryGen(m, x, v, eng.PathFinder(), e.Cfg.Seed+101),
		Real:   true,
	}
	return e.real, nil
}

// QueryConfig returns the workload's default parameters: Table IV bolds for
// the synthetic space; the real dataset uses α = 0.7 and a δs2t that fits
// its floor size.
func (w *Workload) QueryConfig(seed uint64) gen.QueryConfig {
	cfg := gen.DefaultQueryConfig(seed)
	if w.Real {
		cfg.Alpha = 0.7
	}
	return cfg
}

// Measurement is one aggregated result cell.
type Measurement struct {
	// AvgTime is the mean wall time per query instance.
	AvgTime time.Duration
	// AvgBytes is the mean estimated memory per query instance.
	AvgBytes float64
	// AvgHomogeneous is the mean homogeneous rate of the results.
	AvgHomogeneous float64
	// AvgRoutes is the mean result count.
	AvgRoutes float64
	// Truncated counts runs stopped by the expansion cap.
	Truncated int
	// Recomputations accumulates KoE* path recomputations.
	Recomputations int
}

// measure runs every request Runs times under the options and averages.
// The expanded instance list goes through the engine's batch executor, so a
// Config with Workers > 1 fans one figure cell over that many goroutines;
// Workers < 1 (a zero-value Config) is clamped to the contention-free 1.
//
// Methodology note: the engine's compiled-query cache means repeat runs of
// an instance skip CompileQuery, which the seed paid on every run, so
// absolute per-query times amortize compilation. A real-mall compile takes
// about 9 µs against route searches of about 190 µs, and the cache lowers
// every variant's time by the same amount, so figure shapes are
// unaffected.
func (e *Env) measure(w *Workload, reqs []search.Request, opt search.Options) (Measurement, error) {
	var m Measurement
	workers := e.Cfg.Workers
	if workers < 1 {
		workers = 1
	}
	batch := make([]search.Request, 0, len(reqs)*e.Cfg.Runs)
	for _, r := range reqs {
		for run := 0; run < e.Cfg.Runs; run++ {
			batch = append(batch, r)
		}
	}
	results, err := w.Engine.SearchBatch(batch, opt, search.BatchOptions{Workers: workers})
	if err != nil {
		return m, err
	}
	for _, res := range results {
		m.AvgTime += res.Stats.Elapsed
		m.AvgBytes += float64(res.Stats.EstBytes)
		m.AvgHomogeneous += res.HomogeneousRate()
		m.AvgRoutes += float64(len(res.Routes))
		m.Recomputations += res.Stats.Recomputations
		if res.Stats.Truncated {
			m.Truncated++
		}
	}
	if n := len(results); n > 0 {
		m.AvgTime /= time.Duration(n)
		m.AvgBytes /= float64(n)
		m.AvgHomogeneous /= float64(n)
		m.AvgRoutes /= float64(n)
	}
	return m, nil
}

// optionsFor builds the Options for a variant under the expansion cap.
func (e *Env) optionsFor(v search.Variant) (search.Options, error) {
	opt, err := search.OptionsFor(v)
	if err != nil {
		return opt, err
	}
	opt.MaxExpansions = e.Cfg.CapExpansions
	return opt, nil
}

// instances draws the workload's query set for a parameter setting.
func (e *Env) instances(w *Workload, mutate func(*gen.QueryConfig)) ([]search.Request, error) {
	cfg := w.QueryConfig(e.Cfg.Seed + 7)
	cfg.Instances = e.Cfg.Instances
	if mutate != nil {
		mutate(&cfg)
	}
	return w.QGen.Instances(cfg)
}

// ms converts a duration to float milliseconds for series.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// mb converts bytes to megabytes for series.
func mb(b float64) float64 { return b / (1 << 20) }

func fmtF(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
