// Command e2ebench is the repository's end-to-end benchmark. For one named
// workload and seed it generates the venue and the request streams, bakes
// a v3 snapshot through the public snapshot API, launches the real ikrqd on
// a loopback port and drives the workload over HTTP: an open loop at a
// fixed rate timed from each request's due time, then a closed-loop
// capacity phase. It recomputes every answer in process, prints every
// metric by name and unit on stderr, and prints one JSON result line last
// on stdout. With -trace 1 it also replays the stream in process through
// each layer's public calls and reports per-layer numbers from the spans.
//
// Run it through run.sh from the repository root, which builds ikrqd and
// this command first:
//
//	bash e2ebench/run.sh --workload zipf-live --seed 3 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: mall-distinct, tower-koestar or zipf-live")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for the venue and the request streams")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds: 80% open loop, 20% closed-loop capacity")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced in-process replay")
	fs.StringVar(&cfg.ikrqd, "ikrqd", "", "path of the ikrqd binary to benchmark")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for temporary bakes and written traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if cfg.ikrqd == "" || cfg.workload == "" || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: -ikrqd, -workload and a positive -seconds are required")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runBench(ctx, cfg)
	if rep != nil {
		rep.print(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}
