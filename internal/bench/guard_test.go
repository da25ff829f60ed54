package bench

import (
	"strings"
	"testing"
)

func guardReport(allocs map[string]int64, iters int) *PerfReport {
	rep := &PerfReport{
		Suite:         "synthetic-2floor/table3",
		GoMaxProcs:    1,
		CapExpansions: 50000,
	}
	for name, a := range allocs {
		rep.Variants = append(rep.Variants, PerfEntry{Name: name, AllocsPerOp: a, NsPerOp: 5000, Iterations: iters})
	}
	return rep
}

func TestDiffAllocsCleanRun(t *testing.T) {
	base := guardReport(map[string]int64{"ToE": 801, "KoE": 122}, 600)
	cur := guardReport(map[string]int64{"ToE": 801, "KoE": 122}, 900)
	all, regressed, err := DiffAllocs(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 0 {
		t.Fatalf("clean run regressed: %v", regressed)
	}
	// One comparison per variant.
	if len(all) != 2 {
		t.Fatalf("expected 2 comparisons, got %d: %v", len(all), all)
	}
}

func TestDiffAllocsCatchesRegression(t *testing.T) {
	base := guardReport(map[string]int64{"ToE": 801, "KoE": 122}, 600)
	cur := guardReport(map[string]int64{"ToE": 801, "KoE": 123}, 600)
	_, regressed, err := DiffAllocs(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	// One extra alloc/op on a steady-state entry fails — and the stale
	// baseline direction (an improvement) must fail too, so BENCH.json is
	// regenerated rather than silently drifting.
	if len(regressed) != 1 {
		t.Fatalf("regressed = %v, want the KoE row", regressed)
	}
	if !regressed[0].Regressed() || !strings.Contains(regressed[0].String(), "REGRESSED") {
		t.Errorf("diff row not marked: %s", regressed[0])
	}

	cur = guardReport(map[string]int64{"ToE": 800, "KoE": 122}, 600)
	if _, regressed, _ = DiffAllocs(base, cur); len(regressed) != 1 {
		t.Fatalf("alloc improvement must also flag a stale baseline, got %v", regressed)
	}
}

func TestDiffAllocsLowIterationTolerance(t *testing.T) {
	// ToE\P-style entries (5 iterations) amortize one-time pool warmup
	// over a tiny N; 1% slack absorbs that but not a structural change.
	base := guardReport(map[string]int64{`ToE\P`: 92000}, 5)
	cur := guardReport(map[string]int64{`ToE\P`: 92500}, 5)
	_, regressed, err := DiffAllocs(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 0 {
		t.Fatalf("within-tolerance low-iteration delta regressed: %v", regressed)
	}
	cur = guardReport(map[string]int64{`ToE\P`: 94000}, 5)
	if _, regressed, _ = DiffAllocs(base, cur); len(regressed) == 0 {
		t.Fatal("2% alloc growth slipped past the low-iteration tolerance")
	}
}

func TestDiffAllocsRefusesMismatchedRuns(t *testing.T) {
	base := guardReport(map[string]int64{"ToE": 801}, 600)
	other := guardReport(map[string]int64{"ToE": 801}, 600)
	other.Suite = "real-mall/table3"
	if _, _, err := DiffAllocs(base, other); err == nil {
		t.Error("suite mismatch accepted")
	}
	other = guardReport(map[string]int64{"ToE": 801}, 600)
	other.CapExpansions = 300000
	if _, _, err := DiffAllocs(base, other); err == nil {
		t.Error("cap mismatch accepted")
	}
	other = guardReport(map[string]int64{"KoE": 122}, 600)
	if _, _, err := DiffAllocs(base, other); err == nil {
		t.Error("missing variant accepted")
	}
}

func TestDiffAllocsEnforcesExpansions(t *testing.T) {
	withExp := func(exp int64) *PerfReport {
		rep := guardReport(map[string]int64{"KoE*": 122}, 600)
		rep.Variants[0].Expansions = exp
		return rep
	}
	// Matching counts pass.
	_, regressed, err := DiffAllocs(withExp(4200), withExp(4200))
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 0 {
		t.Fatalf("equal expansion counts regressed: %v", regressed)
	}
	// Any drift — more or fewer expansions, or none at all — fails: the
	// counts are deterministic, so either direction means the baseline is
	// stale or the search stopped expanding.
	for _, exp := range []int64{4201, 4199, 0} {
		_, regressed, err := DiffAllocs(withExp(4200), withExp(exp))
		if err != nil {
			t.Fatal(err)
		}
		if len(regressed) != 1 {
			t.Fatalf("expansion drift to %d not flagged: %v", exp, regressed)
		}
		if !strings.Contains(regressed[0].String(), "expansions") {
			t.Errorf("diff row hides the expansion delta: %s", regressed[0])
		}
	}
}

// TestDiffAllocsEnforcesKernelRows: the kernel rows are exact-matched on
// allocations and work counts like the variants, a baseline without them
// (recorded before they existed) compares only what it has, and a fresh
// run missing a baselined kernel row is refused.
func TestDiffAllocsEnforcesKernelRows(t *testing.T) {
	kernel := func(settled int64) []PerfEntry {
		return []PerfEntry{{Name: "KernelSweep", Iterations: 100, Expansions: settled}}
	}
	base := guardReport(map[string]int64{"ToE": 801}, 600)
	base.Kernel = kernel(86912)
	cur := guardReport(map[string]int64{"ToE": 801}, 600)
	cur.Kernel = kernel(86912)
	if _, regressed, err := DiffAllocs(base, cur); err != nil || len(regressed) != 0 {
		t.Fatalf("clean kernel rows: regressed %v, err %v", regressed, err)
	}
	cur.Kernel = kernel(86913)
	if _, regressed, _ := DiffAllocs(base, cur); len(regressed) != 1 || regressed[0].Name != "KernelSweep" {
		t.Fatalf("work-count drift: regressed %v, want the KernelSweep row", regressed)
	}
	old := guardReport(map[string]int64{"ToE": 801}, 600)
	if all, regressed, err := DiffAllocs(old, cur); err != nil || len(regressed) != 0 || len(all) != 1 {
		t.Fatalf("baseline without kernel rows: %d comparisons, regressed %v, err %v", len(all), regressed, err)
	}
	cur.Kernel = nil
	if _, _, err := DiffAllocs(base, cur); err == nil {
		t.Fatal("a fresh run missing a baselined kernel row was compared")
	}
}

// TestDiffAllocsEnforcesKeywordRow: the keyword row's allocations and its
// Σ|κ(wQ)| work count are exact-matched like the kernel rows.
func TestDiffAllocsEnforcesKeywordRow(t *testing.T) {
	row := func(allocs, cands int64) []PerfEntry {
		return []PerfEntry{{Name: "KeywordCompile", Iterations: 100, AllocsPerOp: allocs, Expansions: cands}}
	}
	base := guardReport(map[string]int64{"ToE": 801}, 600)
	base.Keyword = row(42, 900)
	for _, tc := range []struct {
		allocs, cands int64
		regressed     bool
	}{{42, 900, false}, {43, 900, true}, {42, 901, true}} {
		cur := guardReport(map[string]int64{"ToE": 801}, 600)
		cur.Keyword = row(tc.allocs, tc.cands)
		all, regressed, err := DiffAllocs(base, cur)
		if err != nil || len(all) != 2 || (len(regressed) == 1) != tc.regressed {
			t.Fatalf("allocs %d, candidates %d: %d comparisons, regressed %v, err %v",
				tc.allocs, tc.cands, len(all), regressed, err)
		}
	}
}
