// Command ikrqbench regenerates the paper's evaluation figures (Fig. 4–20
// plus the α and τ sweeps) as text tables.
//
// Usage:
//
//	ikrqbench [-fig fig05] [-quick] [-seed 1] [-instances 10] [-runs 5] [-workers 1]
//	ikrqbench -snapshot mall.ikrq [-quick]
//	ikrqbench -benchjson BENCH.json
//	ikrqbench -quick -benchdiff BENCH.json
//	ikrqbench -scale [-quick] [-scalejson BENCH_SCALE.json]
//
// Every mode accepts -cpuprofile/-memprofile, which write pprof profiles
// covering the whole run — the first stop for diagnosing a kernel
// regression without editing code.
//
// With -benchjson the harness skips the figure suite and instead measures
// the per-query hot path of every Table III variant plus the graph
// kernel, writing machine-readable per-variant ns/op, B/op and
// allocs/op to the given file (the BENCH.json tracked at the repo root)
// and a summary table to stdout. -benchdiff re-measures the same sweep at
// the baseline's GOMAXPROCS (warning when the Go minor version differs) and
// exits non-zero if allocs/op drifted from the given baseline in either
// direction (ns/op is printed but advisory — shared runners time too
// noisily to gate on); CI runs it against the committed BENCH.json.
//
// Without -fig every figure runs in presentation order. -quick shrinks the
// workload for a fast smoke pass. Every figure variant runs under an
// expansion cap, noted in the output wherever it truncates a run: the
// unpruned ToE\P is intentionally explosive — the paper itself measures it
// at up to 10^6 ms — and Rule 4 cannot prune before k routes complete.
//
// With -scale (or -scalejson) the harness sweeps mega venues of growing
// size and measures the KoE* oracle: bake time and resident bytes against
// an all-pairs matrix's analytic footprint, plus per-query KoE* latency and
// expansions. -scalejson writes BENCH_SCALE.json, the
// advisory scaling record committed at the repo root; -quick stops the
// sweep at CI-sized venues.
//
// With -snapshot the harness benchmarks serving from a baked index (see
// `ikrqgen -snapshot`): the cold-start cost of loading versus rebuilding,
// then every Table III variant over queries sampled from the loaded space.
// -close and -delay (same syntax as cmd/ikrq) overlay live venue
// conditions on every sampled query, measuring a degraded venue served
// from the unchanged bake. The `conditions` figure of the main suite
// compares that overlay path against rebuilding a door-filtered engine
// per closure scenario.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ikrq/internal/bench"
	"ikrq/internal/cli"
)

func main() { os.Exit(mainImpl()) }

// mainImpl holds the real entry point and reports the exit code, so the
// deferred profile writers run on every path — os.Exit in main would skip
// them and leave -cpuprofile/-memprofile output truncated on failing runs.
func mainImpl() int {
	var (
		figID      = flag.String("fig", "", "single figure to run (fig04..fig20, alpha, tau)")
		quick      = flag.Bool("quick", false, "reduced workload")
		seed       = flag.Uint64("seed", 1, "workload seed")
		instances  = flag.Int("instances", 0, "query instances per setting (default: paper's 10, quick: 3)")
		runs       = flag.Int("runs", 0, "runs per instance (default: paper's 5, quick: 1)")
		cap        = flag.Int("cap", 0, "expansion cap of every figure variant and of the -benchjson ToE\\P rows (default 300000, quick 50000)")
		workers    = flag.Int("workers", 1, "batch-executor workers per figure cell (>1 shortens sweeps but adds timing contention)")
		snap       = flag.String("snapshot", "", "benchmark serving from this baked snapshot instead of the figure suite")
		closeStr   = flag.String("close", "", "with -snapshot: closed doors overlaid on every query, e.g. \"3,17\"")
		delayStr   = flag.String("delay", "", "with -snapshot: door penalties overlaid on every query, e.g. \"12:30,40:15.5\"")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		benchJSON  = flag.String("benchjson", "", "measure the Table III hot paths and write per-variant ns/op, B/op, allocs/op to this file (BENCH.json)")
		benchDiff  = flag.String("benchdiff", "", "re-measure the hot paths and fail (exit 1) if allocs/op regressed against this baseline BENCH.json; ns/op is advisory")
		scale      = flag.Bool("scale", false, "run the venue-size scaling sweep (KoE* oracle bake, memory and latency) and print a table")
		scaleJSON  = flag.String("scalejson", "", "run the scaling sweep and write the report to this file (BENCH_SCALE.json)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return cli.Fail(os.Stderr, "ikrqbench", fmt.Errorf("-cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ikrqbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ikrqbench: -memprofile: %v\n", err)
			}
		}()
	}

	cond, err := cli.ParseConditions(*closeStr, *delayStr)
	if err != nil {
		return cli.Fail(os.Stderr, "ikrqbench", err)
	}
	if cond != nil && *snap == "" {
		return cli.Fail(os.Stderr, "ikrqbench",
			cli.Usagef("-close/-delay require -snapshot (the figure suite samples its own scenarios)"))
	}

	cfg := bench.DefaultConfig(*seed)
	if *quick {
		cfg = bench.QuickConfig(*seed)
	}
	if *instances > 0 {
		cfg.Instances = *instances
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *cap > 0 {
		cfg.CapExpansions = *cap
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *benchJSON != "" && *benchDiff != "" {
		return cli.Fail(os.Stderr, "ikrqbench",
			cli.Usagef("-benchjson and -benchdiff are mutually exclusive (write a baseline or check against one)"))
	}
	if *scale || *scaleJSON != "" {
		rep, err := bench.RunScale(cfg, *quick)
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		if *scaleJSON != "" {
			f, err := os.Create(*scaleJSON)
			if err != nil {
				return cli.Fail(os.Stderr, "ikrqbench", err)
			}
			if err := rep.WriteJSON(f); err != nil {
				f.Close()
				return cli.Fail(os.Stderr, "ikrqbench", err)
			}
			if err := f.Close(); err != nil {
				return cli.Fail(os.Stderr, "ikrqbench", err)
			}
		}
		rep.Fprint(os.Stdout)
		if err := rep.Check(); err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		return cli.ExitOK
	}
	if *benchJSON != "" {
		rep, err := bench.RunPerf(cfg)
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		f, err := os.Create(*benchJSON)
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		if err := f.Close(); err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		rep.Fprint(os.Stdout)
		return cli.ExitOK
	}
	if *benchDiff != "" {
		f, err := os.Open(*benchDiff)
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		baseline, err := bench.ReadPerfReport(f)
		f.Close()
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		procs, warning := bench.MatchBaseline(baseline)
		fmt.Printf("benchdiff: measuring at the baseline's GOMAXPROCS=%d\n", procs)
		if warning != "" {
			fmt.Fprintln(os.Stderr, "ikrqbench: warning:", warning)
		}
		rep, err := bench.RunPerf(cfg)
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		all, regressed, err := bench.DiffAllocs(baseline, rep)
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		fmt.Printf("benchdiff against %s (alloc guard; ns/op advisory)\n", *benchDiff)
		for _, d := range all {
			fmt.Println(d)
		}
		if len(regressed) > 0 {
			return cli.Fail(os.Stderr, "ikrqbench",
				fmt.Errorf("allocation regression in %d entries; if intentional, regenerate the baseline with -benchjson", len(regressed)))
		}
		fmt.Println("benchdiff: allocations unchanged")
		return cli.ExitOK
	}
	if *snap != "" {
		rep, err := bench.RunSnapshot(*snap, cfg, cond)
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", err)
		}
		rep.Fprint(os.Stdout)
		return cli.ExitOK
	}
	env := bench.NewEnv(cfg)
	all := env.All()

	ids := bench.Order()
	if *figID != "" {
		if all[*figID] == nil {
			return cli.Fail(os.Stderr, "ikrqbench",
				cli.Usagef("unknown figure %q; known: %v", *figID, bench.Order()))
		}
		ids = []string{*figID}
	}
	for _, id := range ids {
		fig, err := all[id]()
		if err != nil {
			return cli.Fail(os.Stderr, "ikrqbench", fmt.Errorf("%s: %w", id, err))
		}
		fig.Fprint(os.Stdout)
	}
	return cli.ExitOK
}
