// Package cli holds the bootstrap shared by the ikrq command-line tools
// (cmd/ikrq, cmd/ikrqbench, cmd/ikrqgen): generating or loading an engine
// (synthetic/real mall vs. baked snapshot), drawing a query instance for
// it, and parsing the flag syntaxes the tools share — Table III variant
// names and the -close / -delay live-condition specs.
package cli

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ikrq/internal/gen"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
)

// Process exit codes shared by every ikrq command. Bad command-line input
// exits with ExitUsage (matching what flag.Parse itself does for unknown
// flags, so `ikrq -alg nope` and `ikrq -nope` fail alike); runtime failures
// exit with ExitFailure.
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
)

// UsageError marks an error caused by bad command-line input — an unknown
// -alg variant, a malformed -close/-delay spec, mutually exclusive flags —
// as opposed to a runtime failure like an unreadable snapshot. Fail turns
// the distinction into the exit code and a usage pointer.
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{Err: fmt.Errorf(format, args...)}
}

// IsUsage reports whether err (or anything it wraps) is a UsageError.
func IsUsage(err error) bool {
	var ue *UsageError
	return errors.As(err, &ue)
}

// Fail is the single error exit path of the ikrq commands: it reports err
// on w prefixed with the tool name and returns the exit code main should
// pass to os.Exit — ExitUsage plus a pointer at -h for usage errors,
// ExitFailure for everything else. A nil err returns ExitOK and prints
// nothing.
func Fail(w io.Writer, tool string, err error) int {
	if err == nil {
		return ExitOK
	}
	fmt.Fprintf(w, "%s: %v\n", tool, err)
	if IsUsage(err) {
		fmt.Fprintf(w, "run '%s -h' for usage\n", tool)
		return ExitUsage
	}
	return ExitFailure
}

// Mall generates the evaluation space the -real / -floors /
// -shops-per-floor flags select: the simulated Hangzhou mall, the paper's
// synthetic grid, or a widened mega venue when shopsPerFloor exceeds the
// synthetic default.
func Mall(real bool, floors, shopsPerFloor int, seed uint64) (*gen.Mall, *gen.Vocabulary, *keyword.Index, error) {
	switch {
	case real:
		return gen.RealMall(gen.RealConfig{Seed: seed})
	case shopsPerFloor > 0:
		return gen.MegaMall(floors, shopsPerFloor, seed)
	default:
		return gen.SyntheticMall(floors, seed)
	}
}

// LoadSnapshotEngine assembles a serving engine from a snapshot file baked
// by `ikrqgen -snapshot`, serving snapshots zero-copy over an mmap
// where the platform supports it.
func LoadSnapshotEngine(path string) (*search.Engine, error) {
	return snapshot.OpenEngine(path)
}

// QuerySpec carries the query-shaping flags the tools share. The zero
// value is not useful; populate every field from flags or defaults.
type QuerySpec struct {
	Seed  uint64
	K     int
	QWLen int
	Beta  float64
	S2T   float64 // target δs2t; only meaningful with a generated mall
	Eta   float64
	Alpha float64
	Tau   float64
}

// GeneratedSetup builds an engine over a generated mall and draws one
// δs2t-targeted query instance from its workload generator.
func GeneratedSetup(real bool, floors int, seed uint64, q QuerySpec) (*search.Engine, search.Request, error) {
	mall, voc, idx, err := Mall(real, floors, 0, seed)
	if err != nil {
		return nil, search.Request{}, err
	}
	engine := search.NewEngine(mall.Space, idx)
	qgen := gen.NewQueryGen(mall, idx, voc, engine.PathFinder(), q.Seed)

	cfg := gen.DefaultQueryConfig(q.Seed)
	cfg.K = q.K
	cfg.QWLen = q.QWLen
	cfg.Beta = q.Beta
	cfg.S2T = q.S2T
	cfg.Eta = q.Eta
	cfg.Alpha = q.Alpha
	cfg.Tau = q.Tau
	req, err := qgen.Instance(cfg)
	return engine, req, err
}

// SnapshotSetup loads a baked engine and samples one query from its bare
// index layer (no Mall/Vocabulary bookkeeping survives a bake, so the
// δs2t-targeted generator does not apply; the sampler stretches the query
// across the space instead and QuerySpec.S2T is ignored).
func SnapshotSetup(path string, q QuerySpec) (*search.Engine, search.Request, error) {
	engine, err := LoadSnapshotEngine(path)
	if err != nil {
		return nil, search.Request{}, err
	}
	smp := gen.NewSampler(engine.Space(), engine.Keywords(), engine.PathFinder(), q.Seed)
	cfg := gen.SampleConfig{K: q.K, QWLen: q.QWLen, Beta: q.Beta, Eta: q.Eta, Alpha: q.Alpha, Tau: q.Tau}
	req, err := smp.Instance(cfg)
	return engine, req, err
}

// ParseVariant resolves a Table III variant name ("ToE", "KoE*", …) to its
// Options. An unknown name is a UsageError naming the valid variants.
func ParseVariant(name string) (search.Variant, search.Options, error) {
	v := search.Variant(name)
	opt, err := search.OptionsFor(v)
	if err != nil {
		return v, opt, Usagef("unknown variant %q (valid: %s)", name, VariantList())
	}
	return v, opt, nil
}

// VariantList returns the space-separated variant names for flag usage
// strings.
func VariantList() string {
	vs := search.Variants()
	out := make([]string, len(vs))
	for i := range vs {
		out[i] = string(vs[i])
	}
	return strings.Join(out, " ")
}

// ParseConditions parses the -close and -delay flag syntaxes into a
// live-venue overlay:
//
//	-close "3,17"          doors 3 and 17 are closed
//	-delay "12:30,40:15.5" door 12 costs +30m per pass, door 40 +15.5m
//
// Both specs empty yield a nil overlay (no conditions). Door IDs must fit a
// model.DoorID; they are validated against the engine at query time, not
// here. Malformed specs are UsageErrors.
func ParseConditions(closeSpec, delaySpec string) (*model.Conditions, error) {
	if closeSpec == "" && delaySpec == "" {
		return nil, nil
	}
	cond := model.NewConditions()
	if closeSpec != "" {
		for _, tok := range strings.Split(closeSpec, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			id, err := strconv.ParseInt(tok, 10, 32)
			if err != nil {
				return nil, Usagef("bad -close entry %q: %v", tok, err)
			}
			cond.Close(model.DoorID(id))
		}
	}
	if delaySpec != "" {
		for _, tok := range strings.Split(delaySpec, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			door, pen, ok := strings.Cut(tok, ":")
			if !ok {
				return nil, Usagef("bad -delay entry %q: want door:penalty", tok)
			}
			id, err := strconv.ParseInt(strings.TrimSpace(door), 10, 32)
			if err != nil {
				return nil, Usagef("bad -delay door in %q: %v", tok, err)
			}
			p, err := strconv.ParseFloat(strings.TrimSpace(pen), 64)
			if err != nil {
				return nil, Usagef("bad -delay penalty in %q: %v", tok, err)
			}
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				return nil, Usagef("-delay penalty in %q must be finite and ≥ 0", tok)
			}
			cond.Delay(model.DoorID(id), p)
		}
	}
	if cond.Empty() {
		return nil, nil
	}
	return cond, nil
}
