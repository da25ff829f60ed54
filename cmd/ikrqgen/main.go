// Command ikrqgen generates an evaluation space and reports, dumps, or
// bakes it: partition/door counts per floor, keyword statistics, the full
// space as JSON for external tooling, or a binary engine snapshot that
// cmd/ikrq and cmd/ikrqbench can serve from without rebuilding the index.
//
// Usage:
//
//	ikrqgen -floors 5 -seed 1                     # statistics only
//	ikrqgen -real -json > mall.json               # dump the simulated Hangzhou mall
//	ikrqgen -real -snapshot mall.ikrq             # bake a snapshot incl. the KoE* backend
//	ikrqgen -floors 14 -shops-per-floor 141 -snapshot mega.ikrq
//
// A bake always includes the KoE* distance backend the engine picks by
// venue size (Engine.Precompute): the dense all-pairs matrix up to
// search.DenseStateLimit states — both reference malls — and the
// hierarchical oracle beyond, e.g. for the 14-floor mega venue above.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ikrq"
	"ikrq/internal/cli"
	"ikrq/internal/export"
	"ikrq/internal/keyword"
)

func main() { os.Exit(run()) }

// run is the real entry point; every failure funnels through cli.Fail so
// bad flags exit 2 with a usage pointer and runtime failures exit 1, the
// convention shared by all ikrq commands.
func run() int {
	var (
		floors   = flag.Int("floors", 5, "synthetic floors")
		shops    = flag.Int("shops-per-floor", 0, "widen the synthetic grid to about this many shops per floor (0: the paper's default width)")
		real     = flag.Bool("real", false, "simulated Hangzhou mall")
		seed     = flag.Uint64("seed", 1, "generation seed")
		asJSON   = flag.Bool("json", false, "dump the space as JSON to stdout")
		snapPath = flag.String("snapshot", "", "bake the engine, KoE* backend included, to this snapshot file")
	)
	flag.Parse()
	if *asJSON && *snapPath != "" {
		return cli.Fail(os.Stderr, "ikrqgen",
			cli.Usagef("-json and -snapshot are mutually exclusive; run ikrqgen twice with the same -seed"))
	}
	if *real && *shops > 0 {
		return cli.Fail(os.Stderr, "ikrqgen",
			cli.Usagef("-shops-per-floor shapes the synthetic grid; drop -real to use it"))
	}

	mall, voc, idx, err := cli.Mall(*real, *floors, *shops, *seed)
	if err != nil {
		return cli.Fail(os.Stderr, "ikrqgen", err)
	}
	s := mall.Space

	if *asJSON {
		if err := export.Encode(os.Stdout, s, idx); err != nil {
			return cli.Fail(os.Stderr, "ikrqgen", err)
		}
		return cli.ExitOK
	}

	if *snapPath != "" {
		if err := bake(*snapPath, mall, idx); err != nil {
			return cli.Fail(os.Stderr, "ikrqgen", err)
		}
		return cli.ExitOK
	}

	fmt.Printf("space: %d floors, %d partitions, %d doors, %d stairways\n",
		s.Floors(), s.NumPartitions(), s.NumDoors(), len(s.Stairways()))
	fmt.Printf("rooms: %d, hallway cells: %d\n", len(mall.Rooms), len(mall.HallCells))
	named := 0
	for _, r := range mall.Rooms {
		if idx.P2I(r) != keyword.NoIWord {
			named++
		}
	}
	fmt.Printf("named rooms: %d\n", named)
	fmt.Printf("keywords: %d i-words, %d t-words in index; vocabulary %d brands, avg %.1f t-words/brand, %d distinct t-words\n",
		idx.NumIWords(), idx.NumTWords(), len(voc.Brands), voc.AvgTWords(), voc.DistinctTWords)
	return cli.ExitOK
}

// bake builds the engine and its size-picked KoE* distance backend and
// writes the mmap-servable snapshot, reporting what each stage cost so
// operators can see what a load will save.
func bake(path string, mall *ikrq.Mall, idx *ikrq.KeywordIndex) error {
	t0 := time.Now()
	engine := ikrq.NewEngine(mall.Space, idx)
	build := time.Since(t0)
	t1 := time.Now()
	backend := engine.Precompute().Kind()
	backendTime := time.Since(t1)

	// Write to a temp file in the destination directory and rename it into
	// place. A serving daemon may hold a live mmap of the old file (reload
	// re-reads the same path), so the old bytes must never be rewritten in
	// place — truncation would SIGBUS the daemon and partial writes would
	// serve torn pages. Rename swaps the directory entry atomically; the old
	// inode lives on under the daemon's mapping until it unmaps.
	dir, base := filepath.Dir(path), filepath.Base(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	t2 := time.Now()
	if err := ikrq.SaveSnapshot(f, engine); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil { // CreateTemp defaults to 0600
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("baked %s: %.1f MB in %v (index build %v, KoE* %s %v)\n", path,
		float64(info.Size())/(1<<20), time.Since(t2), build, backend, backendTime)
	return nil
}
