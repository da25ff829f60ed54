package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"ikrq/internal/gen"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
)

// SnapshotReport benchmarks serving from a baked snapshot: what the cold
// start costs versus rebuilding the same index layer from scratch, and the
// per-variant query latency of the loaded engine over sampled instances.
type SnapshotReport struct {
	Path  string
	Bytes int64

	// Backend is the kind of KoE* distance backend the bake carries
	// ("oracle"), or "" when it carries none and the first KoE* query
	// builds one.
	Backend string

	// OpenTime is the cold start through snapshot.OpenEngine — the serving
	// path, trusted and zero-copy over an mmap; LoadTime is the untrusted
	// heap load of the same file through snapshot.LoadEngine (every CRC,
	// every value scan, the space rebuilt from its record); RebuildTime
	// derives the same index layer (state graph, skeleton, and a KoE*
	// backend of the kind the snapshot carries, if any) from scratch.
	OpenTime    time.Duration
	LoadTime    time.Duration
	RebuildTime time.Duration

	// MappedBytes and HeapBytes split the opened engine's residency (see
	// search.MemStats); MappedBytes is 0 on platforms without mmap.
	MappedBytes int64
	HeapBytes   int64

	// Fig holds per-variant average latency (ms) by instance index.
	Fig *Figure
}

// RunSnapshot loads path, measures cold start against a rebuild, and runs
// every Table III variant over cfg.Instances sampled queries (cfg.Runs
// repetitions each, fanned over cfg.Workers). A non-nil cond overlays live
// venue conditions (closures/penalties) on every sampled query, which is
// how `ikrqbench -snapshot -close/-delay` measures serving a degraded
// venue from an unchanged bake.
func RunSnapshot(path string, cfg Config, cond *model.Conditions) (*SnapshotReport, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	rep := &SnapshotReport{Path: path, Bytes: info.Size()}

	t0 := time.Now()
	eng, err := snapshot.OpenEngine(path)
	if err != nil {
		return nil, err
	}
	rep.OpenTime = time.Since(t0)
	if ds := eng.DistanceSourceIfReady(); ds != nil {
		rep.Backend = ds.Kind()
	}
	ems := eng.MemStats()
	rep.MappedBytes, rep.HeapBytes = ems.MappedBytes, ems.HeapBytes

	// The same file through the untrusted heap load, for the open-vs-load
	// comparison the trusted mode exists to win.
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err := snapshot.LoadEngine(f); err != nil {
		f.Close()
		return nil, err
	}
	rep.LoadTime = time.Since(t1)
	f.Close()

	// Rebuild the equivalent index layer from the loaded space for the
	// comparison the snapshot exists to win.
	t2 := time.Now()
	rebuild(eng)
	rep.RebuildTime = time.Since(t2)

	smp := gen.NewSampler(eng.Space(), eng.Keywords(), eng.PathFinder(), cfg.Seed+17)
	scfg := gen.DefaultSampleConfig()
	reqs, err := smp.Instances(cfg.Instances, scfg)
	if err != nil {
		return nil, err
	}
	if cond != nil {
		if err := cond.Validate(eng.Space().NumDoors()); err != nil {
			return nil, err
		}
		for i := range reqs {
			reqs[i].Conditions = cond
		}
	}

	env := NewEnv(cfg)
	w := &Workload{Engine: eng}
	title := fmt.Sprintf("query latency served from %s", path)
	if !cond.Empty() {
		title += " under " + cond.String()
	}
	fig := &Figure{
		ID:     "snapshot",
		Title:  title,
		XLabel: "instance",
		YLabel: "avg time (ms)",
	}
	for _, v := range search.Variants() {
		opt, err := env.optionsFor(v)
		if err != nil {
			return nil, err
		}
		series := Series{Name: string(v)}
		for i, req := range reqs {
			m, err := env.measure(w, []search.Request{req}, opt)
			if err != nil {
				return nil, err
			}
			series.X = append(series.X, float64(i))
			series.Y = append(series.Y, ms(m.AvgTime))
			if m.Truncated > 0 {
				series.Note = fmt.Sprintf("capped at %d expansions", opt.MaxExpansions)
			}
		}
		fig.Series = append(fig.Series, series)
	}
	rep.Fig = fig
	return rep, nil
}

// rebuild derives eng's index layer from scratch, with the KoE* backend
// when eng carries one.
func rebuild(eng *search.Engine) *search.Engine {
	e := search.NewEngine(eng.Space(), eng.Keywords())
	if eng.DistanceSourceIfReady() != nil {
		e.Precompute()
	}
	return e
}

// Fprint renders the report: the cold-start comparison followed by the
// latency table.
func (r *SnapshotReport) Fprint(w io.Writer) {
	backend := "no KoE* backend (lazy build on first KoE* query)"
	if r.Backend != "" {
		backend = "includes KoE* " + r.Backend
	}
	fmt.Fprintf(w, "== snapshot: %s ==\n", r.Path)
	fmt.Fprintf(w, "size: %.1f MB, %s\n", float64(r.Bytes)/(1<<20), backend)
	fmt.Fprintf(w, "resident: %.1f MB heap + %.1f MB mapped\n",
		float64(r.HeapBytes)/(1<<20), float64(r.MappedBytes)/(1<<20))
	speedup := float64(r.RebuildTime) / float64(r.LoadTime)
	openSpeedup := float64(r.RebuildTime) / float64(r.OpenTime)
	fmt.Fprintf(w, "cold start: open %v / heap load %v vs rebuild %v (%.1fx / %.1fx)\n\n",
		r.OpenTime.Round(time.Millisecond), r.LoadTime.Round(time.Millisecond),
		r.RebuildTime.Round(time.Millisecond), openSpeedup, speedup)
	r.Fig.Fprint(w)
}
