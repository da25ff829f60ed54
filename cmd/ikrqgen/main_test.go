package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestBakeReportsEndToEndTotal bakes a 2-floor mall through the command and
// requires the reported total to be at least each of the stages it lists,
// and at least their sum: the total is the whole bake, not its last stage.
func TestBakeReportsEndToEndTotal(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "mall.ikrq")
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	oldArgs, oldStdout, oldFlags := os.Args, os.Stdout, flag.CommandLine
	os.Args = []string{"ikrqgen", "-floors", "2", "-snapshot", snap}
	os.Stdout = stdout
	// run defines its flags on the global set; a fresh one lets the test
	// run more than once in a process (-count).
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	code := run()
	os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags
	if code != 0 {
		t.Fatalf("ikrqgen exited %d", code)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no snapshot baked: %v", err)
	}
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}

	// e2e.sh and CI's scale-smoke grep the "KoE* <kind>" part.
	m := regexp.MustCompile(`in (\S+) \(([^)]*)\)`).FindSubmatch(out)
	if m == nil || !regexp.MustCompile(`KoE\* (matrix|oracle) `).Match(m[2]) {
		t.Fatalf("unexpected bake report %q", out)
	}
	total, err := time.ParseDuration(string(m[1]))
	if err != nil {
		t.Fatalf("total in %q: %v", out, err)
	}
	parts := regexp.MustCompile(`\S+ (\S+)(?:,|$)`).FindAllSubmatch(m[2], -1)
	if len(parts) < 2 {
		t.Fatalf("bake report %q lists %d stages", out, len(parts))
	}
	var sum time.Duration
	for _, p := range parts {
		d, err := time.ParseDuration(string(p[1]))
		if err != nil {
			t.Fatalf("stage %q in %q: %v", p[0], out, err)
		}
		if d > total {
			t.Errorf("stage %q takes %v, more than the reported total %v", p[0], d, total)
		}
		sum += d
	}
	if sum > total {
		t.Errorf("stages sum to %v, more than the reported total %v", sum, total)
	}
}
