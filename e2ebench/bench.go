package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ikrq/internal/keyword"
	"ikrq/internal/search"
	"ikrq/internal/server"
	"ikrq/internal/snapshot"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	ikrqd    string
	work     string
}

// setupRuns is how many daemon start-ups one run times; setup_s is their
// median and the last one serves the load.
const setupRuns = 15

type metric struct {
	name, unit string
}

// The metric names and units, in BENCHMARK.json order.
var (
	endToEnd = []metric{
		{name: "setup_s", unit: "s"},
		{name: "route_p50_ms", unit: "ms"},
		{name: "route_p99_ms", unit: "ms"},
		{name: "capacity_qps", unit: "1/s"},
		{name: "peak_rss_mb", unit: "MiB"},
	}
	perLayer = []metric{
		{name: "search.route_us", unit: "us"},
		{name: "search.hit_us", unit: "us"},
		{name: "search.sequence_us", unit: "us"},
		{name: "search.seq_dijkstras", unit: "count"},
		{name: "search.seq_prefixes", unit: "count"},
		{name: "search.seq_plans", unit: "count"},
		{name: "search.pops", unit: "count"},
		{name: "search.stamps_created", unit: "count"},
		{name: "search.peak_queue", unit: "count"},
		{name: "search.pops_per_route", unit: "count"},
		{name: "search.pruned_rule1", unit: "count"},
		{name: "search.pruned_rule2", unit: "count"},
		{name: "search.pruned_rule3", unit: "count"},
		{name: "search.pruned_rule4", unit: "count"},
		{name: "search.pruned_rule5", unit: "count"},
		{name: "search.pruned_regularity", unit: "count"},
		{name: "search.pruned_delta", unit: "count"},
		{name: "search.pruned_closed", unit: "count"},
		{name: "search.pruned_backend", unit: "count"},
		{name: "search.recomputations", unit: "count"},
		{name: "search.irregular_paths", unit: "count"},
		{name: "search.truncated", unit: "count"},
		{name: "cache.hits", unit: "count"},
		{name: "cache.misses", unit: "count"},
		{name: "cache.hit_ratio", unit: "ratio"},
		{name: "cache.collapsed", unit: "count"},
		{name: "cache.evictions", unit: "count"},
		{name: "cache.invalidations", unit: "count"},
		{name: "keyword.compile_us", unit: "us"},
		{name: "keyword.qcache_hit_ratio", unit: "ratio"},
		{name: "graph.dist_ns", unit: "ns"},
		{name: "graph.static_path_us", unit: "us"},
		{name: "graph.tree_us", unit: "us"},
		{name: "graph.p2p_us", unit: "us"},
		{name: "graph.backend_mb", unit: "MiB"},
		{name: "server.decode_us", unit: "us"},
		{name: "server.build_request_us", unit: "us"},
		{name: "server.build_response_us", unit: "us"},
		{name: "server.encode_us", unit: "us"},
		{name: "registry.acquire_us", unit: "us"},
		{name: "server.overhead_us", unit: "us"},
		{name: "server.shed", unit: "count"},
		{name: "server.timeouts", unit: "count"},
		{name: "server.client_errors", unit: "count"},
		{name: "bus.publishes", unit: "count"},
		{name: "bus.pushes", unit: "count"},
		{name: "bus.coalesced", unit: "count"},
		{name: "snapshot.bake_s", unit: "s"},
		{name: "snapshot.open_ms", unit: "ms"},
		{name: "snapshot.file_mb", unit: "MiB"},
		{name: "snapshot.mapped_mb", unit: "MiB"},
		{name: "engine.heap_mb", unit: "MiB"},
		{name: "layer.server_self_ms", unit: "ms"},
		{name: "layer.search_self_ms", unit: "ms"},
		{name: "layer.keyword_self_ms", unit: "ms"},
		{name: "layer.graph_self_ms", unit: "ms"},
		{name: "layer.snapshot_self_ms", unit: "ms"},
		{name: "load.late_p99_ms", unit: "ms"},
		{name: "load.trace_overhead_pct", unit: "%"},
		{name: "sequence_p50_ms", unit: "ms"},
		{name: "sequence_p99_ms", unit: "ms"},
		{name: "publish_p50_ms", unit: "ms"},
		{name: "reroute_p50_ms", unit: "ms"},
		{name: "failed_frac", unit: "ratio"},
		{name: "samples.route", unit: "count"},
		{name: "samples.sequence", unit: "count"},
		{name: "samples.publish", unit: "count"},
		{name: "samples.reroute", unit: "count"},
	}
)

// report is everything one run measured.
type report struct {
	cfg    config
	record map[string]any
	values map[string]float64
	// attempted counts requests sent plus SSE events received; failed the
	// ones that errored, were refused, truncated or answered wrongly.
	attempted, failed int
	failures          []string
	traceFile         string
	spanLayers        map[string]int // spans recorded per layer (traced runs)
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// result is the final stdout line: end-to-end metrics, or with -trace 1
// the per-layer ones.
func (r *report) result() map[string]any {
	list := endToEnd
	if r.cfg.trace {
		list = perLayer
	}
	ms := make(map[string]any, len(list))
	for _, m := range list {
		ms[m.name] = map[string]any{"value": r.values[m.name], "unit": m.unit}
	}
	return map[string]any{"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

func (r *report) print(w io.Writer) {
	rec, _ := json.Marshal(r.record) // plain data
	fmt.Fprintf(w, "workload record: %s\n", rec)
	printList := func(title string, list []metric) {
		fmt.Fprintln(w, title)
		for _, m := range list {
			v, ok := r.values[m.name]
			if !ok {
				continue
			}
			note := ""
			switch m.name {
			case "capacity_qps":
				note = "  (closed loop)"
			case "route_p99_ms", "sequence_p99_ms":
				if n := r.values["samples."+m.name[:len(m.name)-len("_p99_ms")]]; n < 1000 {
					note = fmt.Sprintf("  (unresolved: %.0f samples, fewer than ten beyond p99)", n)
				}
			}
			fmt.Fprintf(w, "  %-26s %14.4f %-6s%s\n", m.name, v, m.unit, note)
		}
	}
	printList(fmt.Sprintf("end-to-end (%s, seed %d):", r.cfg.workload, r.cfg.seed), endToEnd)
	printList("per-layer and served detail:", perLayer)
	fmt.Fprintf(w, "attempted %d, failed %d, failed_frac %.6f\n", r.attempted, r.failed, r.values["failed_frac"])
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	if r.traceFile != "" {
		fmt.Fprintln(w, "spans written to", r.traceFile)
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeBake(path string, eng *search.Engine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snapshot.SaveEngine(f, eng); err != nil {
		f.Close()
		return fmt.Errorf("baking %s: %w", path, err)
	}
	return f.Close()
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// debugVars is the part of GET /debug/vars the benchmark reads.
type debugVars struct {
	Queries struct {
		Shed         uint64 `json:"shed"`
		Timeouts     uint64 `json:"timeouts"`
		ClientErrors uint64 `json:"client_errors"`
	} `json:"queries"`
	QueryCache  keyword.CacheStats `json:"query_cache"`
	ResultCache search.CacheStats  `json:"result_cache"`
	Bus         struct {
		Publishes int64 `json:"publishes"`
		Pushes    int64 `json:"pushes"`
	} `json:"bus"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runBench runs one workload end to end. The returned report is partial
// when err is non-nil. Every daemon it starts and its temporary directory
// are torn down on every return path; ctx cancellation (SIGINT/SIGTERM)
// aborts the run the same way.
func runBench(ctx context.Context, cfg config) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(cfg.work, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var procs daemons
	defer procs.killAll()

	nproc := runtime.NumCPU()
	rep := &report{cfg: cfg, values: make(map[string]float64)}
	tr := &tracer{on: cfg.trace, t0: time.Now()}
	total := time.Duration(cfg.seconds * float64(time.Second))
	openDur := total * 4 / 5
	capDur := total - openDur

	snap := filepath.Join(tmp, "venue.ikrq")
	st, conns, err := prepare(w, cfg, snap, tr, rep, openDur, capDur)
	if err != nil {
		return nil, err
	}
	// prepare's heap engine is garbage now; settle the collector so the load
	// phases share the CPUs with as little benchmark-side GC as possible.
	runtime.GC()

	// Set-up: ikrqd exec -> -warm venue loaded, /healthz ok, first query answered.
	setups := make([]float64, 0, setupRuns)
	var d *daemon
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		d, err = procs.start(ctx, cfg.ikrqd, snap)
		if err != nil {
			return rep, err
		}
		c := newClient(1)
		err = d.waitReady(ctx, c, &st.warm)
		setups = append(setups, time.Since(t0).Seconds())
		c.CloseIdleConnections()
		if err != nil {
			return rep, err
		}
		if k < setupRuns-1 {
			if err := d.stop(30 * time.Second); err != nil {
				return rep, err
			}
		}
	}
	rep.values["setup_s"] = median(setups)

	// The timed open loop, with the SSE subscriber listening throughout.
	var sub *subscriber
	if st.subscriber != nil {
		if sub, err = subscribe(ctx, d.base, st.subscriber); err != nil {
			return rep, err
		}
		defer sub.stop() // idempotent; ends the reader on early returns
	}
	bus := &busClock{}
	windows := routeWindows(st.open)
	start, openRes, rec, err := openLoop(ctx, d.base, st.open, conns, windows, bus)
	if err != nil {
		return rep, err
	}
	lastRev := bus.sent.Load()
	var events []sseEvent
	if sub != nil {
		waitForEvent(sub, lastRev, 5*time.Second)
		events = sub.stop()
	}

	// The closed-loop capacity phase.
	capRes, capElapsed, err := closedLoop(ctx, d.base, st.capacity, nproc, capDur, bus)
	if err != nil {
		return rep, err
	}
	rep.values["capacity_qps"] = windowedRate(capRes, capElapsed)

	// Daemon-side counters, then drain.
	if rep.values["peak_rss_mb"], err = d.peakRSSMiB(); err != nil {
		return rep, err
	}
	var vars debugVars
	if err := getJSON(ctx, d.base+"/debug/vars", &vars); err != nil {
		return rep, err
	}
	var venues struct {
		Venues []server.VenueStatus `json:"venues"`
	}
	if err := getJSON(ctx, d.base+"/v1/venues", &venues); err != nil {
		return rep, err
	}
	if err := d.stop(30 * time.Second); err != nil {
		return rep, err
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}

	// Answer check, outside every timed window.
	chkEng, err := snapshot.OpenEngine(snap)
	if err != nil {
		return rep, err
	}
	defer chkEng.Close()
	chk := newChecker(chkEng, st)
	chk.checkAll("open", st.open, openRes)
	chk.checkAll("capacity", st.capacity[:len(capRes)], capRes)
	var gaps uint64
	if sub != nil {
		gaps = chk.checkEvents(events, lastRev)
	}
	rep.attempted = len(openRes) + len(capRes) + len(events)
	rep.failed = int(chk.failures.Load())
	rep.failures = chk.msgs
	rep.values["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))

	// Served latencies from the open loop.
	route, seq, pub := &rec.byKind[opRoute], &rec.byKind[opSequence], &rec.byKind[opPublish]
	rep.values["route_p50_ms"] = rec.windowQuantile(windows, 0.50)
	rep.values["route_p99_ms"] = rec.windowQuantile(windows, 0.99)
	rep.values["sequence_p50_ms"] = seq.quantile(0.50)
	rep.values["sequence_p99_ms"] = seq.quantile(0.99)
	rep.values["publish_p50_ms"] = pub.quantile(0.50)
	rep.values["load.late_p99_ms"] = rec.late.quantile(0.99)
	pubAt := make(map[uint64]time.Time)
	for i := range st.open {
		if st.open[i].kind == opPublish {
			pubAt[st.open[i].rev] = start.Add(openRes[i].sent)
		}
	}
	var reroute hist
	for _, ev := range events {
		if t, ok := pubAt[ev.id]; ok {
			reroute.record(ev.at.Sub(t))
		}
	}
	rep.values["reroute_p50_ms"] = reroute.quantile(0.50)
	rep.values["samples.route"] = float64(route.n)
	rep.values["samples.sequence"] = float64(seq.n)
	rep.values["samples.publish"] = float64(pub.n)
	rep.values["samples.reroute"] = float64(reroute.n)

	// Daemon counters.
	rep.values["cache.hits"] = float64(vars.ResultCache.Hits)
	rep.values["cache.misses"] = float64(vars.ResultCache.Misses)
	rep.values["cache.hit_ratio"] = ratio(float64(vars.ResultCache.Hits), float64(vars.ResultCache.Hits+vars.ResultCache.Misses))
	rep.values["cache.collapsed"] = float64(vars.ResultCache.Collapsed)
	rep.values["cache.evictions"] = float64(vars.ResultCache.Evictions)
	rep.values["cache.invalidations"] = float64(vars.ResultCache.Invalidations)
	rep.values["keyword.qcache_hit_ratio"] = ratio(float64(vars.QueryCache.Hits), float64(vars.QueryCache.Hits+vars.QueryCache.Misses))
	rep.values["server.shed"] = float64(vars.Queries.Shed)
	rep.values["server.timeouts"] = float64(vars.Queries.Timeouts)
	rep.values["server.client_errors"] = float64(vars.Queries.ClientErrors)
	rep.values["bus.publishes"] = float64(vars.Bus.Publishes)
	rep.values["bus.pushes"] = float64(vars.Bus.Pushes)
	rep.values["bus.coalesced"] = float64(gaps)
	for _, v := range venues.Venues {
		rep.values["snapshot.mapped_mb"] += float64(v.MappedBytes) / (1 << 20)
		rep.values["engine.heap_mb"] += float64(v.HeapBytes) / (1 << 20)
	}

	if cfg.trace {
		if err := traceRun(ctx, rep, tr, snap, st); err != nil {
			return rep, err
		}
	}
	for name, v := range rep.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return rep, nil
}

// prepare builds the venue, bakes it to snap, generates the streams and
// fills the workload record. It returns the streams and the open loop's
// connection count. The daemon only ever sees the bake and the requests.
func prepare(w *workload, cfg config, snap string, tr *tracer, rep *report, openDur, capDur time.Duration) (*streams, int, error) {
	m, voc, x, err := w.build(venueSeed)
	if err != nil {
		return nil, 0, fmt.Errorf("building venue: %w", err)
	}
	eng := search.NewEngine(m.Space, x)
	bakeStart := time.Now()
	s := tr.begin("snapshot.bake", -1, -1)
	backend := eng.Precompute()
	err = writeBake(snap, eng)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	rep.values["snapshot.bake_s"] = time.Since(bakeStart).Seconds()
	info, err := os.Stat(snap)
	if err != nil {
		return nil, 0, err
	}
	rep.values["snapshot.file_mb"] = float64(info.Size()) / (1 << 20)
	rep.values["graph.backend_mb"] = float64(backend.Bytes()) / (1 << 20)

	nOpen, nCap := w.sizeFor(openDur, capDur)
	st, err := w.generate(&venue{mall: m, vocab: voc, index: x, eng: eng}, cfg.seed, w.rate, nOpen, nCap, openDur)
	if err != nil {
		return nil, 0, fmt.Errorf("generating streams: %w", err)
	}

	nproc := runtime.NumCPU()
	conns := nproc
	if st.subscriber != nil {
		conns = max(1, nproc-1)
	}
	floors := map[int]bool{}
	for _, p := range m.Space.Partitions() {
		floors[p.Bounds.Floor] = true
	}
	distinct := nOpen + nCap
	if st.poolSize > 0 {
		distinct = st.poolSize
	}
	rep.record = map[string]any{
		"workload": w.name, "why": w.why, "seed": cfg.seed, "venue_seed": venueSeed,
		"venue": map[string]any{
			"generator": w.describe, "floors": len(floors), "partitions": m.Space.NumPartitions(),
			"doors": m.Space.NumDoors(), "states": eng.PathFinder().NumStates(),
			"backend": backend.Kind(), "bake_bytes": info.Size(),
		},
		"mix":            st.mix,
		"open_loop":      map[string]any{"rate_qps": w.rate, "route_windows": routeWindows(st.open), "seconds": openDur.Seconds(), "connections": conns, "sse_connections": nproc - conns},
		"capacity_phase": map[string]any{"loop": "closed", "seconds": capDur.Seconds(), "connections": nproc},
		"working_set":    map[string]any{"distinct_requests": distinct, "result_cache_entries": search.DefaultCacheEntries, "fits_cache": distinct <= search.DefaultCacheEntries},
		"nproc":          nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}
	return st, conns, nil
}

// capacityWindows is how many equal windows the capacity phase is cut into;
// capacity_qps is the median of their completion rates, so a stall of the
// shared machine in one window does not move it.
const capacityWindows = 8

func windowedRate(res []result, elapsed time.Duration) float64 {
	w := elapsed / capacityWindows
	counts := make([]float64, capacityWindows)
	for _, r := range res {
		if k := int(r.done / w); k < capacityWindows {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= w.Seconds()
	}
	return median(counts)
}

// waitForEvent waits until the subscriber has seen an event with id rev.
func waitForEvent(s *subscriber, rev uint64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.events)
		seen := n > 0 && s.events[n-1].id >= rev
		s.mu.Unlock()
		if seen {
			return
		}
		select {
		case <-s.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// traceRun replays the open-loop stream in process three times (untraced,
// traced, untraced, so warm-up order does not bias the overhead estimate),
// probes the graph and snapshot layers, derives the per-layer numbers from
// the spans and writes the spans out.
func traceRun(ctx context.Context, rep *report, tr *tracer, snap string, st *streams) error {
	replayOnce := func(on bool) (*replay, time.Duration, error) {
		tr.on = on
		rp, err := newReplay(snap, st, tr)
		if err != nil {
			return nil, 0, err
		}
		wall, err := rp.run()
		if err == nil {
			err = ctx.Err()
		}
		return rp, wall, err
	}
	untraced := func() (time.Duration, error) {
		rp, wall, err := replayOnce(false)
		if rp != nil {
			rp.close()
		}
		return wall, err
	}
	off1, err := untraced()
	if err != nil {
		return err
	}
	on, wallOn, err := replayOnce(true)
	if err != nil {
		return err
	}
	gp, err := on.probeGraph(300)
	on.close()
	if err != nil {
		return err
	}
	if err := probeOpen(tr, snap, 5); err != nil {
		return err
	}
	tr.on = false
	off2, err := untraced()
	if err != nil {
		return err
	}
	wallOff := (off1 + off2) / 2
	rep.values["load.trace_overhead_pct"] = 100 * (wallOn.Seconds() - wallOff.Seconds()) / wallOff.Seconds()

	type agg struct {
		n     int
		total int64
		self  int64
	}
	self := tr.selfTimes()
	rep.spanLayers = make(map[string]int)
	byName := make(map[string]*agg)
	byLayer := make(map[string]int64)
	var opens []float64
	for i, s := range tr.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += self[i]
		byLayer[s.Layer] += self[i]
		rep.spanLayers[s.Layer]++
		if s.Name == "snapshot.open" {
			opens = append(opens, float64(s.End-s.Start)/1e6)
		}
	}
	mean := func(name string, perUnit float64) float64 {
		if a := byName[name]; a != nil && a.n > 0 {
			return float64(a.total) / float64(a.n) / perUnit
		}
		return 0
	}
	v := rep.values
	v["search.route_us"] = mean("search.route", 1e3)
	v["search.hit_us"] = mean("search.hit", 1e3)
	v["search.sequence_us"] = mean("search.sequence", 1e3)
	v["keyword.compile_us"] = mean("keyword.compile", 1e3)
	v["server.decode_us"] = mean("server.decode", 1e3)
	v["server.build_request_us"] = mean("server.build_request", 1e3)
	v["server.build_response_us"] = mean("server.build_response", 1e3)
	v["server.encode_us"] = mean("server.encode", 1e3)
	v["registry.acquire_us"] = mean("registry.acquire", 1e3)
	if a := byName["server.request"]; a != nil && a.n > 0 {
		v["server.overhead_us"] = float64(a.self) / float64(a.n) / 1e3
	}
	v["graph.tree_us"] = mean("graph.tree", 1e3)
	v["graph.p2p_us"] = mean("graph.p2p", 1e3)
	if a := byName["graph.dist"]; a != nil && gp.dists > 0 {
		v["graph.dist_ns"] = float64(a.total) / float64(gp.dists)
	}
	if a := byName["graph.static_path"]; a != nil && gp.paths > 0 {
		v["graph.static_path_us"] = float64(a.total) / float64(gp.paths) / 1e3
	}
	v["snapshot.open_ms"] = median(opens)
	for _, l := range layers {
		v["layer."+l+"_self_ms"] = float64(byLayer[l]) / 1e6
	}

	t := &on.tot
	v["search.seq_dijkstras"] = ratio(float64(t.seq.Dijkstras), float64(t.sequences))
	v["search.seq_prefixes"] = ratio(float64(t.seq.Prefixes), float64(t.sequences))
	v["search.seq_plans"] = ratio(float64(t.seq.Plans), float64(t.sequences))
	r := &t.route
	v["search.pops"] = float64(r.Pops)
	v["search.stamps_created"] = float64(r.StampsCreated)
	v["search.peak_queue"] = float64(t.peakQueue)
	v["search.pops_per_route"] = ratio(float64(r.Pops), float64(t.routes))
	v["search.pruned_rule1"] = float64(r.PrunedRule1)
	v["search.pruned_rule2"] = float64(r.PrunedRule2)
	v["search.pruned_rule3"] = float64(r.PrunedRule3)
	v["search.pruned_rule4"] = float64(r.PrunedRule4)
	v["search.pruned_rule5"] = float64(r.PrunedRule5)
	v["search.pruned_regularity"] = float64(r.PrunedRegularity)
	v["search.pruned_delta"] = float64(r.PrunedDelta)
	v["search.pruned_closed"] = float64(r.PrunedClosed)
	v["search.pruned_backend"] = float64(r.PrunedBackend)
	v["search.recomputations"] = float64(r.Recomputations)
	v["search.irregular_paths"] = float64(r.IrregularPaths)
	v["search.truncated"] = float64(t.truncated)

	dir := filepath.Join(rep.cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep.traceFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rep.cfg.workload, rep.cfg.seed))
	b, err := json.Marshal(map[string]any{"record": rep.record, "spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(rep.traceFile, b, 0o644)
}
