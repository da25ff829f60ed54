package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// This file is the bench-regression guard behind `ikrqbench -benchdiff`:
// it re-measures the Table III hot paths and diffs the allocation and
// expansion counts against the committed BENCH.json. Allocations and
// expansions are the enforced axes — the zero-alloc kernel work of PR 4 is
// a structural property, and expansion counts measure prune power on a
// fixed workload; both are deterministic enough to exact-match. ns/op is
// advisory only: shared CI runners time with ~4× noise (see BENCH.json's
// own caveats), so latency deltas are printed but never fail the guard.

// ReadPerfReport decodes a BENCH.json payload.
func ReadPerfReport(r io.Reader) (*PerfReport, error) {
	var rep PerfReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: decoding baseline report: %w", err)
	}
	return &rep, nil
}

// MatchBaseline sets GOMAXPROCS to the baseline's before a re-measure.
// Pooled scratch comes from per-P sync.Pool caches, so allocs/op move with
// the P count: an unchanged tree re-measured at GOMAXPROCS=2 against a
// baseline recorded at 1 reads ToE\P's allocs/op 29 -> 45. It returns the
// GOMAXPROCS in force and, when the running Go minor version differs from
// the baseline's, a warning: runtime internals may change allocation
// behavior across minors, which no setting can match.
func MatchBaseline(baseline *PerfReport) (procs int, warning string) {
	if baseline.GoMaxProcs > 0 {
		runtime.GOMAXPROCS(baseline.GoMaxProcs)
	}
	if goMinor(baseline.GoVersion) != goMinor(runtime.Version()) {
		warning = fmt.Sprintf("baseline measured with %s, running %s: allocation counts may differ across Go minor versions",
			baseline.GoVersion, runtime.Version())
	}
	return runtime.GOMAXPROCS(0), warning
}

// goMinor cuts a Go version string after its minor version ("go1.24.0"
// -> "go1.24"); a string without a patch part is returned whole.
func goMinor(v string) string {
	major, rest, ok := strings.Cut(v, ".")
	if !ok {
		return v
	}
	minor, _, _ := strings.Cut(rest, ".")
	return major + "." + minor
}

// exactIterFloor is the baseline iteration count above which allocs/op are
// fully amortized and must match exactly. Entries measured with fewer
// iterations (ToE\P runs ~5 on the quick workload) still carry one-time
// pool-warmup allocations divided by a small N, so they get a 1% slack
// instead — far below any structural regression, which shows up in the
// thousands.
const exactIterFloor = 20

// AllocDiff is one entry's comparison.
type AllocDiff struct {
	Name              string
	Baseline, Got     int64
	Tolerance         int64 // 0 means exact match required
	NsBaseline, NsGot int64
	// ExpBaseline/ExpGot compare the deterministic expansion counts; they
	// must match exactly.
	ExpBaseline, ExpGot int64
}

// Regressed reports whether the entry fails the guard.
func (d AllocDiff) Regressed() bool {
	delta := d.Got - d.Baseline
	if delta < 0 {
		delta = -delta
	}
	return delta > d.Tolerance || d.expansionsDiverged()
}

// expansionsDiverged reports an expansion-count mismatch. Expansions are
// exactly reproducible on the fixed workload, so any drift — either
// direction, to zero included — means the prune behavior changed and the
// baseline must be regenerated deliberately.
func (d AllocDiff) expansionsDiverged() bool {
	return d.ExpBaseline != d.ExpGot
}

// String renders one diff row.
func (d AllocDiff) String() string {
	nsDelta := 0.0
	if d.NsBaseline > 0 {
		nsDelta = 100 * float64(d.NsGot-d.NsBaseline) / float64(d.NsBaseline)
	}
	status := "ok"
	if d.Regressed() {
		status = "REGRESSED"
	}
	exp := ""
	if d.ExpBaseline > 0 || d.ExpGot > 0 {
		exp = fmt.Sprintf(" expansions %d -> %d", d.ExpBaseline, d.ExpGot)
	}
	return fmt.Sprintf("%-14s allocs %6d -> %6d (tol %d) %-9s ns/op %+.1f%% (advisory)%s",
		d.Name, d.Baseline, d.Got, d.Tolerance, status, nsDelta, exp)
}

// DiffAllocs compares a freshly measured report against the committed
// baseline and returns every per-variant, kernel-row and keyword-row
// comparison plus the failing subset (rows the baseline lacks are not
// compared). Reports from different suites or ToE\P caps measure different
// work, and reports at different GOMAXPROCS count different pool
// allocations: both refuse to compare.
func DiffAllocs(baseline, current *PerfReport) (all []AllocDiff, regressed []AllocDiff, err error) {
	if baseline.Suite != current.Suite {
		return nil, nil, fmt.Errorf("bench: baseline suite %q vs current %q; not comparable", baseline.Suite, current.Suite)
	}
	if baseline.GoMaxProcs > 0 && baseline.GoMaxProcs != current.GoMaxProcs {
		return nil, nil, fmt.Errorf("bench: baseline GOMAXPROCS %d vs current %d; per-P pools move allocs/op, so measure at the baseline's (MatchBaseline)",
			baseline.GoMaxProcs, current.GoMaxProcs)
	}
	if baseline.CapExpansions != current.CapExpansions {
		return nil, nil, fmt.Errorf("bench: baseline ToE\\P cap %d vs current %d; rerun with matching -quick/-cap",
			baseline.CapExpansions, current.CapExpansions)
	}
	cmp := func(base, got []PerfEntry) error {
		index := make(map[string]PerfEntry, len(got))
		for _, e := range got {
			index[e.Name] = e
		}
		for _, b := range base {
			g, ok := index[b.Name]
			if !ok {
				return fmt.Errorf("bench: baseline entry %s missing from the fresh run", b.Name)
			}
			d := AllocDiff{
				Name:        b.Name,
				Baseline:    b.AllocsPerOp,
				Got:         g.AllocsPerOp,
				NsBaseline:  b.NsPerOp,
				NsGot:       g.NsPerOp,
				ExpBaseline: b.Expansions,
				ExpGot:      g.Expansions,
			}
			if b.Iterations < exactIterFloor {
				d.Tolerance = int64(math.Ceil(float64(b.AllocsPerOp) * 0.01))
			}
			all = append(all, d)
			if d.Regressed() {
				regressed = append(regressed, d)
			}
		}
		return nil
	}
	if err := cmp(baseline.Variants, current.Variants); err != nil {
		return nil, nil, err
	}
	if err := cmp(baseline.Kernel, current.Kernel); err != nil {
		return nil, nil, err
	}
	if err := cmp(baseline.Keyword, current.Keyword); err != nil {
		return nil, nil, err
	}
	return all, regressed, nil
}
