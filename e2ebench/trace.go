package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ikrq/internal/graph"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/server"
	"ikrq/internal/snapshot"
)

// The traced run replays a workload's open-loop stream in process, through
// the same public calls the ikrqd handlers make and in the same order, and
// records a span around each one. It never runs inside the timed window:
// served latencies come from the untraced HTTP run, per-layer numbers from
// here.

// span is one timed call. Start and End are ns from the tracer's origin.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Req    int    `json:"req"`    // index of the request in the stream, -1 outside one
}

// layers are the modules spans are attributed to, by name prefix.
var layers = []string{"server", "search", "keyword", "graph", "snapshot"}

func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "registry", "bus":
		return "server"
	}
	return prefix
}

// tracer keeps spans in memory; with on false, begin and end are no-ops.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layerOf(name), Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) rename(i int, name string) {
	if i >= 0 {
		t.spans[i].Name = name
	}
}

// selfTimes returns each span's duration minus the time its children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// searchTotals accumulates the engine's own counters over replayed misses.
type searchTotals struct {
	routes, sequences int
	route             search.Stats
	peakQueue         int
	truncated         int
	seq               search.SequenceStats
}

func (s *searchTotals) addRoute(st *search.Stats) {
	s.routes++
	r := &s.route
	r.Pops += st.Pops
	r.StampsCreated += st.StampsCreated
	s.peakQueue = max(s.peakQueue, st.PeakQueue)
	r.PrunedRule1 += st.PrunedRule1
	r.PrunedRule2 += st.PrunedRule2
	r.PrunedRule3 += st.PrunedRule3
	r.PrunedRule4 += st.PrunedRule4
	r.PrunedRule5 += st.PrunedRule5
	r.PrunedRegularity += st.PrunedRegularity
	r.PrunedDelta += st.PrunedDelta
	r.PrunedClosed += st.PrunedClosed
	r.PrunedBackend += st.PrunedBackend
	r.Recomputations += st.Recomputations
	r.IrregularPaths += st.IrregularPaths
	if st.Truncated {
		s.truncated++
	}
}

// replay is one in-process pass over a stream against a fresh registry.
type replay struct {
	reg *server.Registry
	tr  *tracer
	bus *model.Conditions // the published overlay
	st  *streams
	tot searchTotals
	buf bytes.Buffer
}

func newReplay(snap string, st *streams, tr *tracer) (*replay, error) {
	reg := server.NewRegistry(0)
	reg.EnableResultCache(search.CacheOptions{MaxEntries: search.DefaultCacheEntries, MaxBytes: search.DefaultCacheBytes})
	if err := reg.Add(server.VenueConfig{Name: venueName, Path: snap, Warm: true}); err != nil {
		return nil, err
	}
	if err := reg.WarmAll(); err != nil {
		return nil, err
	}
	return &replay{reg: reg, tr: tr, st: st}, nil
}

// close releases the replay's engine mapping.
func (rp *replay) close() {
	h, err := rp.reg.Acquire(venueName)
	if err != nil {
		return
	}
	h.Release()
	_ = h.Engine().Close() // the registry is dropped with it; nothing else serves from it
}

// run replays the whole open-loop stream and returns its wall time.
func (rp *replay) run() (time.Duration, error) {
	if rp.st.subscriber != nil {
		if err := rp.rerun(-1); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for i := range rp.st.open {
		o := &rp.st.open[i]
		var err error
		if o.kind == opPublish {
			err = rp.publish(i, o)
		} else {
			err = rp.query(i, o)
		}
		if err != nil {
			return 0, fmt.Errorf("replaying request %d (%v): %w", i, o.kind, err)
		}
	}
	return time.Since(t0), nil
}

// decodeStrict decodes like the handlers do: unknown fields are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// query mirrors handleQuery / handleQueryV2: decode, acquire, resolve the
// request, search, build and encode the response, release.
func (rp *replay) query(i int, o *op) error {
	tr := rp.tr
	root := tr.begin("server.request", -1, i)
	defer tr.end(root)

	s := tr.begin("server.decode", root, i)
	var route *server.QueryRequest
	var seq *server.SequenceRequestV2
	switch {
	case strings.HasPrefix(o.path, "/v1/"):
		route = new(server.QueryRequest)
		if err := decodeStrict(o.body, route); err != nil {
			return err
		}
	default:
		var sniff struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(o.body, &sniff); err != nil {
			return err
		}
		if sniff.Type == "sequence" {
			seq = new(server.SequenceRequestV2)
			if err := decodeStrict(o.body, seq); err != nil {
				return err
			}
		} else {
			var env server.RouteRequestV2
			if err := decodeStrict(o.body, &env); err != nil {
				return err
			}
			route = &env.QueryRequest
		}
	}
	tr.end(s)

	s = tr.begin("registry.acquire", root, i)
	h, err := rp.reg.Acquire(venueName)
	tr.end(s)
	if err != nil {
		return err
	}
	if route != nil {
		_, err = rp.route(root, i, h, route)
	} else {
		err = rp.sequence(root, i, h, seq)
	}
	s = tr.begin("registry.release", root, i)
	h.Release()
	tr.end(s)
	return err
}

// compile spans the compiled-query cache lookup the searcher makes first.
func (rp *replay) compile(parent, i int, eng *search.Engine, qw []string, tau float64) {
	qc := eng.QueryCache()
	misses := qc.Stats().Misses
	s := rp.tr.begin("keyword.compile", parent, i)
	qc.Get(qw, tau)
	rp.tr.end(s)
	if qc.Stats().Misses == misses {
		rp.tr.rename(s, "keyword.lookup")
	}
}

// route mirrors Server.runRouteQuery plus the response encode.
func (rp *replay) route(parent, i int, h *server.Handle, q *server.QueryRequest) (*server.QueryResponse, error) {
	tr, eng := rp.tr, h.Engine()
	s := tr.begin("server.build_request", parent, i)
	variant := search.Variant(q.Variant)
	if q.Variant == "" {
		variant = search.VariantToE
	}
	opt, err := search.OptionsFor(variant)
	if err != nil {
		return nil, err
	}
	opt.MaxExpansions = maxExpansions
	req, err := q.BuildRequest(eng)
	if err != nil {
		return nil, err
	}
	if req.Conditions == nil {
		req.Conditions = rp.bus
	}
	tr.end(s)

	rp.compile(parent, i, eng, req.QW, req.Tau)
	rc := eng.ResultCache()
	hits := rc.Stats().Hits
	s = tr.begin("search.route", parent, i)
	res, err := eng.SearchContext(context.Background(), req, opt)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if rc.Stats().Hits > hits {
		tr.rename(s, "search.hit")
	} else {
		rp.tot.addRoute(&res.Stats)
	}

	s = tr.begin("server.build_response", parent, i)
	resp := server.BuildResponse(venueName, variant, req, res)
	tr.end(s)
	s = tr.begin("server.encode", parent, i)
	rp.buf.Reset()
	err = json.NewEncoder(&rp.buf).Encode(resp)
	tr.end(s)
	return resp, err
}

// sequence mirrors Server.runSequenceQuery plus the response encode.
func (rp *replay) sequence(parent, i int, h *server.Handle, q *server.SequenceRequestV2) error {
	tr, eng := rp.tr, h.Engine()
	s := tr.begin("server.build_request", parent, i)
	req, err := q.BuildSequenceRequest(eng)
	if err != nil {
		return err
	}
	if req.Conditions == nil {
		req.Conditions = rp.bus
	}
	tr.end(s)

	for _, leg := range req.Legs {
		rp.compile(parent, i, eng, leg.QW, req.Tau)
	}
	rc := eng.ResultCache()
	hits := rc.Stats().Hits
	s = tr.begin("search.sequence", parent, i)
	res, err := eng.SearchSequenceContext(context.Background(), req)
	tr.end(s)
	if err != nil {
		return err
	}
	if rc.Stats().Hits > hits {
		tr.rename(s, "search.hit")
	} else {
		rp.tot.sequences++
		rp.tot.seq.Dijkstras += res.Stats.Dijkstras
		rp.tot.seq.Prefixes += res.Stats.Prefixes
		rp.tot.seq.Plans += res.Stats.Plans
	}

	s = tr.begin("server.build_response", parent, i)
	resp := server.BuildSequenceResponse(venueName, req, res)
	tr.end(s)
	s = tr.begin("server.encode", parent, i)
	rp.buf.Reset()
	err = json.NewEncoder(&rp.buf).Encode(resp)
	tr.end(s)
	return err
}

// publish mirrors handleConditions, then re-runs the subscriber the way the
// SSE handler does on the bus wake-up.
func (rp *replay) publish(i int, o *op) error {
	tr := rp.tr
	root := tr.begin("server.publish", -1, i)
	s := tr.begin("server.decode", root, i)
	var cw server.ConditionsWire
	err := decodeStrict(o.body, &cw)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return err
	}
	s = tr.begin("registry.acquire", root, i)
	h, err := rp.reg.Acquire(venueName)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return err
	}
	cond := cw.Conditions()
	numDoors := h.Engine().Space().NumDoors()
	h.Release()
	if err := cond.Validate(numDoors); err != nil {
		tr.end(root)
		return err
	}
	s = tr.begin("bus.publish", root, i)
	rp.bus = cond
	err = rp.reg.InvalidateResults(venueName)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return err
	}
	s = tr.begin("server.encode", root, i)
	rp.buf.Reset()
	err = json.NewEncoder(&rp.buf).Encode(server.ConditionsPublishResponse{Venue: venueName, Revision: o.rev})
	tr.end(s)
	tr.end(root)
	if err != nil {
		return err
	}
	if rp.st.subscriber != nil {
		return rp.rerun(i)
	}
	return nil
}

// rerun mirrors runSubscribed: re-run the subscriber envelope and encode
// the payload and its routes-only change signature.
func (rp *replay) rerun(i int) error {
	tr := rp.tr
	root := tr.begin("bus.rerun", -1, i)
	defer tr.end(root)
	var env server.RouteRequestV2
	if err := decodeStrict(rp.st.subscriber.body, &env); err != nil {
		return err
	}
	s := tr.begin("registry.acquire", root, i)
	h, err := rp.reg.Acquire(venueName)
	tr.end(s)
	if err != nil {
		return err
	}
	defer h.Release()
	resp, err := rp.route(root, i, h, &env.QueryRequest)
	if err != nil {
		return err
	}
	s = tr.begin("bus.diff", root, i)
	_, err = json.Marshal(resp.Routes) // the routes-only signature the handler compares
	tr.end(s)
	return err
}

// graphProbe times the graph layer's public calls on state pairs and seeds
// taken from the stream's own requests: the point-to-point distance, a full
// shortest-path tree from the start seeds, backend Dist between start and
// terminal states, and backend static path recovery between them.
type graphProbe struct {
	dists, paths int
}

func (rp *replay) probeGraph(maxOps int) (*graphProbe, error) {
	h, err := rp.reg.Acquire(venueName)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	eng := h.Engine()
	pf, ds := eng.PathFinder(), eng.DistanceSourceIfReady()
	if ds == nil {
		return nil, fmt.Errorf("graph probe: the KoE* backend is not loaded")
	}
	ws := graph.NewWorkspace()
	var hops []graph.Hop
	gp := &graphProbe{}
	seen := make(map[int]bool)
	probed := 0
	for i := range rp.st.open {
		o := &rp.st.open[i]
		if probed >= maxOps || o.kind == opPublish || (o.key >= 0 && seen[o.key]) {
			continue
		}
		seen[o.key] = true
		probed++
		ps, pt := endpoints(o)
		root := rp.tr.begin("graph.probe", -1, i)
		s := rp.tr.begin("graph.p2p", root, i)
		pf.PointToPoint(ps.Point(), pt.Point())
		rp.tr.end(s)

		from, to := pf.SeedsFromPoint(ps.Point()), pf.SeedsFromPoint(pt.Point())
		s = rp.tr.begin("graph.tree", root, i)
		pf.ShortestTreeWS(ws, from, graph.Costs{})
		rp.tr.end(s)

		from, to = from[:min(len(from), 4)], to[:min(len(to), 4)]
		s = rp.tr.begin("graph.dist", root, i)
		for _, a := range from {
			for _, b := range to {
				ds.Dist(a.State, b.State)
			}
		}
		rp.tr.end(s)
		gp.dists += len(from) * len(to)

		s = rp.tr.begin("graph.static_path", root, i)
		for _, a := range from {
			for _, b := range to {
				hops, _, _ = ds.AppendStaticPathIfAllowed(ws, hops[:0], a.State, b.State, graph.Costs{})
			}
		}
		rp.tr.end(s)
		gp.paths += len(from) * len(to)
		rp.tr.end(root)
	}
	return gp, nil
}

// endpoints returns an op's start and terminal points on the wire.
func endpoints(o *op) (server.PointWire, server.PointWire) {
	if o.seq != nil {
		return pointWire(o.seq.Ps), pointWire(o.seq.Pt)
	}
	return pointWire(o.route.Ps), pointWire(o.route.Pt)
}

// probeOpen times snapshot.OpenEngine (+ Close) n times under spans.
func probeOpen(tr *tracer, snap string, n int) error {
	for k := 0; k < n; k++ {
		s := tr.begin("snapshot.open", -1, -1)
		eng, err := snapshot.OpenEngine(snap)
		tr.end(s)
		if err != nil {
			return err
		}
		if err := eng.Close(); err != nil {
			return err
		}
	}
	return nil
}
