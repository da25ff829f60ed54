package server

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ikrq/internal/geom"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

// This file is the wire format of the serving API: the JSON shapes of
// POST /v1/venues/{venue}/query and the conversions to and from the
// in-process search types. The conversions are total and lossless in the
// response direction — the oracle test in server_test.go asserts that a
// route served over HTTP decodes byte-identical to the same route from an
// in-process Engine.Search — and defensive in the request direction: every
// malformed field maps to a structured 400, never a panic.

// PointWire is a geom.Point on the wire.
type PointWire struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int     `json:"floor"`
}

// Point converts to the in-process representation.
func (p PointWire) Point() geom.Point { return geom.Pt(p.X, p.Y, p.Floor) }

// ConditionsWire is the live-venue overlay on the wire: closed door IDs
// plus per-door traversal penalties in walking meters. Overlay checks that
// every ID fits a model.DoorID; Engine.Validate checks them against the
// venue's space.
type ConditionsWire struct {
	Close []int           `json:"close,omitempty"`
	Delay map[int]float64 `json:"delay,omitempty"`
}

// Overlay range-checks the wire door IDs and converts the overlay; nil in,
// nil out. Every overlay a client sends goes through it — route and
// sequence query overlays and conditions publishes — so an ID that does not
// fit a model.DoorID is a client error naming the ID as sent, never a
// silent wrap onto another door (4294967301 would otherwise become door 5).
func (c *ConditionsWire) Overlay() (*model.Conditions, error) {
	if c == nil {
		return nil, nil
	}
	for _, d := range c.Close {
		if int(model.DoorID(d)) != d {
			return nil, fmt.Errorf("conditions close door %d, outside the door ID range", d)
		}
	}
	for d := range c.Delay {
		if int(model.DoorID(d)) != d {
			return nil, fmt.Errorf("conditions delay door %d, outside the door ID range", d)
		}
	}
	return c.Conditions(), nil
}

// Conditions converts the overlay without range checks; nil in, nil out.
// Client input goes through Overlay.
func (c *ConditionsWire) Conditions() *model.Conditions {
	if c == nil || (len(c.Close) == 0 && len(c.Delay) == 0) {
		return nil
	}
	cond := model.NewConditions()
	for _, d := range c.Close {
		cond.Close(model.DoorID(d))
	}
	for d, p := range c.Delay {
		cond.Delay(model.DoorID(d), p)
	}
	return cond
}

// QueryRequest is the JSON body of POST /v1/venues/{venue}/query. Exactly
// one of Delta (an absolute distance budget in meters) and Eta (the paper's
// η factor: Δ = η · δ(ps, pt) over the venue's indoor shortest distance)
// must be positive. An empty Variant selects plain ToE.
type QueryRequest struct {
	Start    PointWire `json:"start"`
	Terminal PointWire `json:"terminal"`
	Keywords []string  `json:"keywords"`
	K        int       `json:"k"`

	Delta float64 `json:"delta,omitempty"`
	Eta   float64 `json:"eta,omitempty"`

	Alpha float64 `json:"alpha"`
	Tau   float64 `json:"tau"`

	// Variant is a Table III name: ToE, ToE\D, ToE\B, ToE\P, KoE, KoE\D,
	// KoE\B or KoE*.
	Variant string `json:"variant,omitempty"`

	Conditions *ConditionsWire `json:"conditions,omitempty"`

	// TimeoutMillis, when positive, tightens the per-request deadline below
	// the server's configured maximum; it can never extend it.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// BuildRequest resolves the wire request into a search.Request against the
// venue's engine. Errors are client errors (they map to 400): η resolution
// needs the engine because Δ = η · δ(ps, pt) is computed over the venue's
// state graph.
func (q *QueryRequest) BuildRequest(eng *search.Engine) (search.Request, error) {
	req := search.Request{
		Ps:    q.Start.Point(),
		Pt:    q.Terminal.Point(),
		QW:    q.Keywords,
		K:     q.K,
		Alpha: q.Alpha,
		Tau:   q.Tau,
	}
	if len(q.Keywords) > maxWireKeywords {
		return req, fmt.Errorf("query carries %d keywords; at most %d", len(q.Keywords), maxWireKeywords)
	}
	var err error
	if req.Delta, err = resolveDelta(eng, req.Ps, req.Pt, q.Delta, q.Eta); err != nil {
		return req, err
	}
	req.Conditions, err = q.Conditions.Overlay()
	return req, err
}

// resolveDelta applies the Δ rule route and sequence queries share: exactly
// one of delta (an absolute budget in meters) and eta (a factor over the
// indoor shortest distance δ(ps, pt)) must be positive.
func resolveDelta(eng *search.Engine, ps, pt geom.Point, delta, eta float64) (float64, error) {
	switch {
	case delta > 0 && eta > 0:
		return 0, errors.New("delta and eta are mutually exclusive; send one")
	case delta > 0:
		return delta, nil
	case eta > 0:
		d := eng.PathFinder().PointToPoint(ps, pt)
		if math.IsInf(d, 1) || d <= 0 {
			return 0, errors.New("eta needs a positive finite shortest distance between start and terminal; the points are not connected")
		}
		return eta * d, nil
	default:
		return 0, errors.New("a positive delta (meters) or eta (distance factor) is required")
	}
}

// RouteWire is one returned route on the wire, mirroring search.Route.
type RouteWire struct {
	Doors   []int     `json:"doors"`
	Entered []int     `json:"entered"`
	KP      []int     `json:"kp"`
	Dist    float64   `json:"dist"`
	Rho     float64   `json:"rho"`
	Sims    []float64 `json:"sims"`
	Psi     float64   `json:"psi"`
}

// StatsWire is the subset of search.Stats a serving client cares about.
type StatsWire struct {
	ElapsedMicros int64 `json:"elapsed_us"`
	Pops          int   `json:"pops"`
	StampsCreated int   `json:"stamps_created"`
	Truncated     bool  `json:"truncated,omitempty"`
}

// QueryResponse is the JSON body of a successful query.
type QueryResponse struct {
	Venue   string      `json:"venue"`
	Variant string      `json:"variant"`
	Delta   float64     `json:"delta"`
	Routes  []RouteWire `json:"routes"`
	Stats   StatsWire   `json:"stats"`
}

// BuildResponse converts a search result for the wire.
func BuildResponse(venue string, variant search.Variant, req search.Request, res *search.Result) *QueryResponse {
	out := &QueryResponse{
		Venue:   venue,
		Variant: string(variant),
		Delta:   req.Delta,
		Routes:  make([]RouteWire, len(res.Routes)),
		Stats: StatsWire{
			ElapsedMicros: res.Stats.Elapsed.Microseconds(),
			Pops:          res.Stats.Pops,
			StampsCreated: res.Stats.StampsCreated,
			Truncated:     res.Stats.Truncated,
		},
	}
	for i := range res.Routes {
		out.Routes[i] = routeWire(&res.Routes[i])
	}
	return out
}

func routeWire(r *search.Route) RouteWire {
	w := RouteWire{
		Doors:   make([]int, len(r.Doors)),
		Entered: make([]int, len(r.Entered)),
		KP:      make([]int, len(r.KP)),
		Dist:    r.Dist,
		Rho:     r.Rho,
		Sims:    r.Sims,
		Psi:     r.Psi,
	}
	for i, d := range r.Doors {
		w.Doors[i] = int(d)
	}
	for i, v := range r.Entered {
		w.Entered[i] = int(v)
	}
	for i, v := range r.KP {
		w.KP[i] = int(v)
	}
	return w
}

// ErrorBody is the structured error envelope every non-200 response
// carries: a stable machine-readable code plus a human-readable message.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is the payload of ErrorBody.
type ErrorInfo struct {
	// Code is one of the taxonomy rows in errors.go (mirrored in the
	// README error table): malformed_request, request_too_large,
	// invalid_request, unknown_variant, unknown_type, unknown_venue,
	// venue_unavailable, reload_failed, path_forbidden, overloaded,
	// subscriber_limit, deadline_exceeded, draining.
	Code    string `json:"code"`
	Message string `json:"message"`

	// Retryable reports whether the identical request may succeed later
	// without changes (capacity and lifecycle conditions, not request
	// defects).
	Retryable bool `json:"retryable,omitempty"`

	// RetryAfterSeconds accompanies overloaded responses, mirroring the
	// Retry-After header for clients that only read bodies.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// ReloadRequest is the (optional) body of POST /v1/venues/{venue}/reload.
// An empty body — or an empty path — reloads the venue's configured
// snapshot path in place.
type ReloadRequest struct {
	// Path, when set, is the snapshot file to swap in; it becomes the
	// venue's configured path for future loads. It must be relative and is
	// resolved under the server's configured snapshot root (ikrqd
	// -snapshot-root) — absolute paths, ".." escapes, or any override on a
	// server without a root are rejected with 403 path_forbidden.
	Path string `json:"path,omitempty"`
}

// ReloadResponse answers a successful reload.
type ReloadResponse struct {
	Venue string `json:"venue"`
	// LoadMillis is the wall time the side-load (plus warmup, when the
	// venue is configured Warm) took; serving continued on the old engine
	// throughout.
	LoadMillis int64 `json:"load_ms"`
}

// VenueStatus is one venue's entry in GET /v1/venues.
type VenueStatus struct {
	Name     string `json:"name"`
	Path     string `json:"path,omitempty"`
	Loaded   bool   `json:"loaded"`
	Warm     bool   `json:"warm"`
	InFlight int    `json:"in_flight"`
	Loads    int64  `json:"loads"`
	Queries  uint64 `json:"queries"`

	// LastLoadMillis is the wall time the most recent snapshot load (plus
	// warmup, when configured) took; 0 until the venue has loaded once.
	LastLoadMillis int64 `json:"last_load_ms,omitempty"`

	// Backend and ResidentBytes report the loaded engine's memory footprint
	// (search.MemStats.TotalBytes and the KoE* backend kind); both are zero
	// values while the venue is unloaded or evicted. HeapBytes and
	// MappedBytes split the total by residency: heap-decoded tables vs
	// views over an mmap'd v3 snapshot (page-cache shared).
	Backend       string `json:"backend,omitempty"`
	ResidentBytes int64  `json:"resident_bytes,omitempty"`
	HeapBytes     int64  `json:"heap_bytes,omitempty"`
	MappedBytes   int64  `json:"mapped_bytes,omitempty"`

	// ResultCache is the venue's result-cache counter snapshot; nil while
	// the venue is unloaded or when serving runs with caching off.
	ResultCache *search.CacheStats `json:"result_cache,omitempty"`
}

// durationMillis rounds for VenueStatus.
func durationMillis(d time.Duration) int64 { return d.Milliseconds() }
