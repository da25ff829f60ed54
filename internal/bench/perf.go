package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/graph"
	"ikrq/internal/search"
)

// This file is the machine-readable perf surface: RunPerf measures the
// per-query hot path of every Table III variant on the standard 2-floor
// synthetic workload, and the graph kernel on the simulated real mall, and
// PerfReport marshals the result as BENCH.json. The committed BENCH.json at
// the repo root is regenerated with `ikrqbench -benchjson BENCH.json`
// whenever the kernel changes, so the allocation/latency trajectory is
// tracked in version control instead of scattered across PR descriptions.

// PerfEntry is one measured configuration. Values are per query (the
// benchmark loop runs a fixed request batch per iteration and divides).
type PerfEntry struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	Iterations  int    `json:"iterations"`
	// Expansions is the total number of stamp expansions (Stats.Pops) over
	// one pass of the request batch — a deterministic prune-power axis the
	// guard exact-matches alongside allocations, so a bound that silently
	// loosens (more expansions for the same routes) fails CI even when
	// wall-clock noise hides it. The kernel entries carry their own work
	// count here (see PerfReport.Kernel).
	Expansions int64 `json:"expansions,omitempty"`
}

// PerfReport is the BENCH.json payload.
type PerfReport struct {
	// Suite identifies the workload shape so numbers are only compared
	// like-for-like across PRs.
	Suite      string `json:"suite"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Queries    int    `json:"queries_per_op"`

	// Venue records the measured workload's size, so scaling context
	// travels with the numbers (and tooling can cross-reference
	// BENCH_SCALE.json points).
	Venue VenueMeta `json:"venue"`

	// CapExpansions is the ToE\P expansion cap the run used (300000
	// default, 50000 with -quick). The cap changes ToE\P's workload, so
	// entries are only comparable across reports with equal caps — which is
	// why it is recorded instead of baked into Suite.
	CapExpansions int `json:"cap_expansions"`

	// Variants holds one entry per Table III variant, per query.
	Variants []PerfEntry `json:"variants"`

	// Kernel measures the graph kernel on the simulated real mall (seed
	// 1): KernelSweep is one exhaustive static Dijkstra run, from evenly
	// spaced source states, and its work count the states those runs
	// settle; SequenceBatch is one sequence query through the engine, and
	// its work count the kernel stages the batch runs
	// (SequenceStats.Dijkstras). Values are per run and per query; the work
	// counts are per batch pass, exact-matched like expansions.
	Kernel []PerfEntry `json:"kernel,omitempty"`
}

// VenueMeta is the venue-size block shared by the perf and scale reports.
type VenueMeta struct {
	Floors     int `json:"floors"`
	Partitions int `json:"partitions"`
	Doors      int `json:"doors"`
	States     int `json:"states"`
}

// RunPerf measures the perf report on the standard workload. Profiles are
// the caller's concern (cmd/ikrqbench wires -cpuprofile/-memprofile around
// it).
func RunPerf(cfg Config) (*PerfReport, error) {
	env := NewEnv(cfg)
	w, err := env.Synthetic(2)
	if err != nil {
		return nil, err
	}
	qcfg := gen.DefaultQueryConfig(cfg.Seed + 17)
	qcfg.Instances = 3
	reqs, err := w.QGen.Instances(qcfg)
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{
		Suite:         "synthetic-2floor/table3",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Queries:       len(reqs),
		CapExpansions: cfg.CapExpansions,
		Venue: VenueMeta{
			Floors:     w.Mall.Space.Floors(),
			Partitions: w.Mall.Space.NumPartitions(),
			Doors:      w.Mall.Space.NumDoors(),
			States:     w.Engine.PathFinder().NumStates(),
		},
	}
	rep.Variants, err = measureVariants(w.Engine, reqs, cfg.CapExpansions)
	if err != nil {
		return nil, err
	}
	rep.Kernel, err = measureKernel()
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// The kernel entries' batch sizes: source states per sweep pass, sequence
// queries per batch pass.
const (
	kernelSweepSources = 32
	kernelSequences    = 8
)

// measureKernel benchmarks the kernel sweep and the sequence batch on the
// real mall. The workload is fixed (seed 1, whatever -seed says), so the
// work counts stay comparable across reports.
func measureKernel() ([]PerfEntry, error) {
	w, err := NewEnv(Config{Seed: 1}).Real()
	if err != nil {
		return nil, err
	}
	pf := w.Engine.PathFinder()
	n := pf.NumStates()
	seeds := make([][]graph.Seed, kernelSweepSources)
	for i := range seeds {
		seeds[i] = []graph.Seed{{State: graph.StateID(i * n / kernelSweepSources)}}
	}
	ws := graph.NewWorkspace()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, sd := range seeds {
				pf.ShortestTreeWS(ws, sd, graph.Costs{})
			}
		}
	})
	sweep := perQuery("KernelSweep", r, len(seeds))
	for _, sd := range seeds {
		t := pf.ShortestTreeWS(ws, sd, graph.Costs{})
		for s := 0; s < n; s++ {
			if !math.IsInf(t.Dist(graph.StateID(s)), 1) {
				sweep.Expansions++ // an exhaustive run settles every reached state once
			}
		}
	}

	sp := gen.NewSampler(w.Mall.Space, w.Index, pf, 7)
	reqs, err := sp.SequenceInstances(kernelSequences, gen.DefaultSequenceSampleConfig())
	if err != nil {
		return nil, err
	}
	// The untimed pass that counts the work also pays the engine's
	// first-query initialization, which would otherwise fill the
	// benchmark's first round and stop it at one iteration.
	var stages int64
	for _, req := range reqs {
		res, err := w.Engine.SearchSequence(req)
		if err != nil {
			return nil, fmt.Errorf("bench: sequence batch: %w", err)
		}
		stages += int64(res.Stats.Dijkstras)
	}
	var seqErr error
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, err := w.Engine.SearchSequence(req); err != nil {
					seqErr = err
					b.FailNow()
				}
			}
		}
	})
	if seqErr != nil {
		return nil, fmt.Errorf("bench: sequence batch: %w", seqErr)
	}
	seq := perQuery("SequenceBatch", r, len(reqs))
	seq.Expansions = stages
	return []PerfEntry{sweep, seq}, nil
}

// measureVariants benchmarks the request batch on every Table III variant.
func measureVariants(eng *search.Engine, reqs []search.Request, capExpansions int) ([]PerfEntry, error) {
	var out []PerfEntry
	for _, v := range search.Variants() {
		opt, err := search.OptionsFor(v)
		if err != nil {
			return nil, err
		}
		if opt.DisablePrime {
			opt.MaxExpansions = capExpansions // keep the unpruned variant finite
		}
		if opt.Precompute {
			eng.Precompute() // pay the build outside the timer
		}
		var searchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, req := range reqs {
					if _, err := eng.Search(req, opt); err != nil {
						searchErr = err
						b.FailNow()
					}
				}
			}
		})
		if searchErr != nil {
			return nil, fmt.Errorf("bench: %s: %w", v, searchErr)
		}
		e := perQuery(string(v), r, len(reqs))
		// One untimed batch pass records the variant's deterministic
		// expansion count (identical every run on a fixed workload).
		for _, req := range reqs {
			res, err := eng.Search(req, opt)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", v, err)
			}
			e.Expansions += int64(res.Stats.Pops)
		}
		out = append(out, e)
	}
	return out, nil
}

// perQuery divides a batch benchmark result down to per-query numbers.
func perQuery(name string, r testing.BenchmarkResult, batch int) PerfEntry {
	return PerfEntry{
		Name:        name,
		NsPerOp:     r.NsPerOp() / int64(batch),
		AllocsPerOp: r.AllocsPerOp() / int64(batch),
		BytesPerOp:  r.AllocedBytesPerOp() / int64(batch),
		Iterations:  r.N,
	}
}

// WriteJSON writes the report as indented JSON (the BENCH.json format).
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Fprint prints a human-readable summary table of the report.
func (r *PerfReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "perf suite %s (GOMAXPROCS=%d, %s, %d queries/op, ToE\\P cap %d)\n",
		r.Suite, r.GoMaxProcs, r.GoVersion, r.Queries, r.CapExpansions)
	fmt.Fprintf(w, "%-12s %14s %14s %14s %12s\n", "variant", "ns/op", "B/op", "allocs/op", "expansions")
	for _, e := range r.Variants {
		fmt.Fprintf(w, "%-12s %14d %14d %14d %12d\n", e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.Expansions)
	}
	for _, e := range r.Kernel {
		fmt.Fprintf(w, "%-12s %14d %14d %14d %12d\n", e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.Expansions)
	}
}
