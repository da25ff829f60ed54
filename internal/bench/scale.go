package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ikrq/internal/gen"
	"ikrq/internal/graph"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
)

// This file is the venue-size scaling surface behind BENCH_SCALE.json: for
// a sweep of mega venues it measures the KoE* backend — the hierarchical
// oracle's bake time and resident bytes, near-linear in states where an
// all-pairs matrix is quadratic — plus KoE* per-query latency and work.
// The committed BENCH_SCALE.json is advisory (absolute numbers are
// machine-bound); CI's scale-smoke job re-runs the quick sweep to catch
// structural regressions (a bake that no longer finishes, resident bytes
// that went quadratic).

// ScalePoint is one venue size in the sweep.
type ScalePoint struct {
	Floors        int `json:"floors"`
	ShopsPerFloor int `json:"shops_per_floor"`
	Partitions    int `json:"partitions"`
	Doors         int `json:"doors"`
	States        int `json:"states"`
	Hubs          int `json:"hubs"`

	OracleBuildMs float64 `json:"oracle_build_ms"`
	OracleBytes   int64   `json:"oracle_bytes"`

	// DenseBytes is the analytic resident size an all-pairs distance
	// matrix would need, 8·States² bytes: the Θ(states²) KoE* memory of
	// the paper's Fig. 14, which Check holds the oracle ≥10x under.
	DenseBytes int64 `json:"dense_bytes"`

	OracleKoEStarP50Ms float64 `json:"oracle_koestar_p50_ms"`

	// Total stamp expansions (Stats.Pops) over one pass of the point's
	// request batch — deterministic on the fixed workload, so the committed
	// numbers pin KoE* prune power at scale.
	OracleKoEStarExpansions int64 `json:"oracle_koestar_expansions,omitempty"`

	// Snapshot cold start at this scale: the oracle engine is baked to a
	// temp file and SnapshotColdMs times snapshot.OpenEngine (zero-copy
	// over an mmap) from file to first answered probe query, best of three.
	// The probe is a cheap ToE query: it proves the engine serves, while
	// keeping the metric about load cost rather than the KoE* query cost
	// measured separately above. SnapshotMappedBytes is the mmap-served
	// residency of the opened engine (0 on platforms without mmap);
	// SnapshotBytes the file size.
	SnapshotBytes       int64   `json:"snapshot_bytes,omitempty"`
	SnapshotColdMs      float64 `json:"snapshot_cold_ms,omitempty"`
	SnapshotMappedBytes int64   `json:"snapshot_mapped_bytes,omitempty"`
}

// ScaleReport is the BENCH_SCALE.json payload.
type ScaleReport struct {
	Suite      string       `json:"suite"`
	GoMaxProcs int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Queries    int          `json:"queries_per_point"`
	Runs       int          `json:"runs_per_query"`
	Points     []ScalePoint `json:"points"`
}

// ScaleSizes returns the venue sizes the sweep bakes: quick stops where CI
// wall clocks stay comfortable, the full sweep continues to a venue whose
// all-pairs matrix would be multiple gigabytes.
func ScaleSizes(quick bool) [][2]int {
	sizes := [][2]int{{2, 96}, {4, 96}, {8, 96}, {14, 141}}
	if !quick {
		sizes = append(sizes, [2]int{24, 141}, [2]int{32, 141})
	}
	return sizes
}

// RunScale measures the sweep.
func RunScale(cfg Config, quick bool) (*ScaleReport, error) {
	rep := &ScaleReport{
		Suite:      "mega-venue/koestar-scaling",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Queries:    cfg.Instances,
		Runs:       cfg.Runs,
	}
	for _, sz := range ScaleSizes(quick) {
		floors, shops := sz[0], sz[1]
		m, v, x, err := gen.MegaMall(floors, shops, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: mega venue %d×%d: %w", floors, shops, err)
		}
		engO := search.NewEngine(m.Space, x)
		t0 := time.Now()
		orc := engO.Precompute().(*graph.Oracle)
		oracleBuild := time.Since(t0)

		n := engO.PathFinder().NumStates()
		pt := ScalePoint{
			Floors:        floors,
			ShopsPerFloor: shops,
			Partitions:    m.Space.NumPartitions(),
			Doors:         m.Space.NumDoors(),
			States:        n,
			Hubs:          orc.NumHubs(),
			OracleBuildMs: ms(oracleBuild),
			OracleBytes:   orc.Bytes(),
			DenseBytes:    int64(n) * int64(n) * 8,
		}

		qg := gen.NewQueryGen(m, x, v, engO.PathFinder(), cfg.Seed+33)
		qcfg := gen.DefaultQueryConfig(cfg.Seed + 33)
		qcfg.Instances = cfg.Instances
		reqs, err := qg.Instances(qcfg)
		if err != nil {
			return nil, fmt.Errorf("bench: mega venue %d×%d queries: %w", floors, shops, err)
		}
		opt, err := search.OptionsFor(search.VariantKoEStar)
		if err != nil {
			return nil, err
		}
		pt.OracleKoEStarP50Ms, pt.OracleKoEStarExpansions, err = koeStarP50(engO, reqs, opt, cfg.Runs)
		if err != nil {
			return nil, fmt.Errorf("bench: mega venue %d×%d oracle KoE*: %w", floors, shops, err)
		}

		pt.SnapshotColdMs, pt.SnapshotMappedBytes, pt.SnapshotBytes, err = snapshotColdStart(engO, reqs[0])
		if err != nil {
			return nil, fmt.Errorf("bench: mega venue %d×%d snapshot cold start: %w", floors, shops, err)
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// snapshotColdStart bakes eng to a temp file and times snapshot.OpenEngine
// (zero-copy over an mmap where supported) from file to first answered
// probe query, best of three. The probe runs the cheap ToE variant so the
// measurement is dominated by load cost, not by the KoE* query cost the
// sweep records separately. Returned alongside are the opened engine's
// mmap-served bytes and the file size.
func snapshotColdStart(eng *search.Engine, req search.Request) (coldMs float64, mappedBytes, snapBytes int64, err error) {
	opt, err := search.OptionsFor(search.VariantToE)
	if err != nil {
		return 0, 0, 0, err
	}
	dir, err := os.MkdirTemp("", "ikrq-scale-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bake.ikrq")
	if err := writeSnapshot(path, eng); err != nil {
		return 0, 0, 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	snapBytes = info.Size()

	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		// Settle the collector so the open is not billed for GC debt
		// accumulated by the sweep's own precompute allocations.
		runtime.GC()
		t0 := time.Now()
		e, err := snapshot.OpenEngine(path)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("cold start: %w", err)
		}
		_, err = e.Search(req, opt)
		best = min(best, time.Since(t0))
		mappedBytes = e.MemStats().MappedBytes
		_ = e.Close()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("cold start: %w", err)
		}
	}
	return ms(best), mappedBytes, snapBytes, nil
}

// writeSnapshot bakes eng to path.
func writeSnapshot(path string, eng *search.Engine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snapshot.SaveEngine(f, eng); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// koeStarP50 runs each request runs times and returns the median per-query
// wall time in milliseconds plus the deterministic total expansion count of
// one pass over the batch.
func koeStarP50(eng *search.Engine, reqs []search.Request, opt search.Options, runs int) (float64, int64, error) {
	if runs < 1 {
		runs = 1
	}
	var samples []time.Duration
	var expansions int64
	for r := 0; r < runs; r++ {
		for _, req := range reqs {
			res, err := eng.Search(req, opt)
			if err != nil {
				return 0, 0, err
			}
			samples = append(samples, res.Stats.Elapsed)
			if r == 0 {
				expansions += int64(res.Stats.Pops)
			}
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return ms(samples[len(samples)/2]), expansions, nil
}

// Check validates the structural properties the sweep gates in CI: every
// point completed its oracle bake and queries, and at the largest venue the
// oracle tables undercut an all-pairs matrix's analytic footprint by at
// least 10x — the near-linear-vs-quadratic separation the oracle exists
// for.
// Wall-clock figures are deliberately not checked (shared runners time too
// noisily to gate on).
func (r *ScaleReport) Check() error {
	if len(r.Points) == 0 {
		return fmt.Errorf("bench: scale sweep produced no points")
	}
	for _, p := range r.Points {
		if p.OracleBytes <= 0 || p.OracleKoEStarP50Ms < 0 {
			return fmt.Errorf("bench: scale point %d×%d did not complete the oracle path", p.Floors, p.ShopsPerFloor)
		}
		if p.OracleKoEStarExpansions <= 0 {
			return fmt.Errorf("bench: scale point %d×%d recorded no oracle KoE* expansions", p.Floors, p.ShopsPerFloor)
		}
	}
	last := r.Points[len(r.Points)-1]
	if last.OracleBytes*10 > last.DenseBytes {
		return fmt.Errorf("bench: oracle memory no longer near-linear: %d bytes at %d states vs dense %d (want ≥10x under)",
			last.OracleBytes, last.States, last.DenseBytes)
	}
	return nil
}

// WriteJSON writes the report as indented JSON (the BENCH_SCALE.json
// format).
func (r *ScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Fprint prints a human-readable summary table of the report.
func (r *ScaleReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "scale suite %s (GOMAXPROCS=%d, %s, %d queries × %d runs per point)\n",
		r.Suite, r.GoMaxProcs, r.GoVersion, r.Queries, r.Runs)
	fmt.Fprintf(w, "%7s %6s %7s %7s %6s %12s %12s %12s %10s %10s %10s %10s %10s\n",
		"floors", "shops", "parts", "states", "hubs",
		"orc build ms", "orc bytes", "dense bytes", "orc p50ms", "orc exps",
		"snap bytes", "cold ms", "mapped B")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%7d %6d %7d %7d %6d %12.1f %12d %12d %10.2f %10d %10d %10.2f %10d\n",
			p.Floors, p.ShopsPerFloor, p.Partitions, p.States, p.Hubs,
			p.OracleBuildMs, p.OracleBytes, p.DenseBytes,
			p.OracleKoEStarP50Ms, p.OracleKoEStarExpansions,
			p.SnapshotBytes, p.SnapshotColdMs, p.SnapshotMappedBytes)
	}
}

// ReadScaleReport parses a BENCH_SCALE.json stream.
func ReadScaleReport(r io.Reader) (*ScaleReport, error) {
	var rep ScaleReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: parsing scale report: %w", err)
	}
	return &rep, nil
}
