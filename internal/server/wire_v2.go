package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"ikrq/internal/search"
)

// This file is the v2 wire format: POST /v2/venues/{venue}/query carries a
// versioned envelope — a discriminated union over "type" — so new query
// shapes extend the API without perturbing /v1 (whose body stays the bare
// QueryRequest forever; the v1-vs-v2 oracle in server_test.go pins the two
// routes byte-identical for route queries). Decoding is two-phase: a lenient
// sniff reads only the discriminator, then the named shape decodes strictly
// (unknown fields are structured 400s, never silently dropped). DESIGN.md
// §14 states the versioning policy.

// Wire-level caps, enforced before the engine sees the request so oversized
// bodies fail fast with a structured error: keywords per route query or
// sequence leg (a query's candidate sets and search state grow with its
// keyword count), and legs per sequence.
const (
	maxWireKeywords = 16
	maxWireLegs     = search.MaxSequenceLegs
)

// Envelope discriminator values.
const (
	queryTypeRoute    = "route"
	queryTypeSequence = "sequence"
)

// RouteRequestV2 is the v2 route-query envelope: the v1 QueryRequest plus
// the discriminator.
type RouteRequestV2 struct {
	Type string `json:"type"`
	QueryRequest
}

// SequenceLegWire is one ordered stop on the wire.
type SequenceLegWire struct {
	Keywords []string `json:"keywords"`
}

// SequenceRequestV2 is the v2 sequence-query envelope. Exactly one of Delta
// and Eta must be positive, as on route queries. Beam 0 runs the exact
// planner.
type SequenceRequestV2 struct {
	Type     string            `json:"type"`
	Start    PointWire         `json:"start"`
	Terminal PointWire         `json:"terminal"`
	Legs     []SequenceLegWire `json:"legs"`
	K        int               `json:"k"`

	Delta float64 `json:"delta,omitempty"`
	Eta   float64 `json:"eta,omitempty"`

	Alpha float64 `json:"alpha"`
	Tau   float64 `json:"tau"`
	Beam  int     `json:"beam,omitempty"`

	Conditions *ConditionsWire `json:"conditions,omitempty"`

	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// queryEnvelope is a decoded query, from either endpoint: exactly one of
// Route and Sequence is non-nil.
type queryEnvelope struct {
	Route    *QueryRequest
	Sequence *SequenceRequestV2
}

// decodeQuery reads a v1 query body: a bare QueryRequest, decoded strictly
// as it streams. The reader is expected to be MaxBytesReader-bounded by the
// caller.
func decodeQuery(body io.Reader) (*queryEnvelope, *apiError) {
	var q QueryRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(codeRequestTooLarge, "request body exceeds the %d-byte limit", tooBig.Limit)
		}
		return nil, errf(codeMalformedRequest, "decoding request body: %v", err)
	}
	return &queryEnvelope{Route: &q}, nil
}

// decodeEnvelope reads a v2 query body: sniff the discriminator leniently,
// then decode the named shape strictly. The reader is expected to be
// MaxBytesReader-bounded by the caller.
func decodeEnvelope(body io.Reader) (*queryEnvelope, *apiError) {
	raw, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(codeRequestTooLarge, "request body exceeds the %d-byte limit", tooBig.Limit)
		}
		return nil, errf(codeMalformedRequest, "reading request body: %v", err)
	}
	var sniff struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &sniff); err != nil {
		return nil, errf(codeMalformedRequest, "decoding request body: %v", err)
	}
	strict := func(v any) *apiError {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return errf(codeMalformedRequest, "decoding %s request: %v", sniff.Type, err)
		}
		return nil
	}
	switch sniff.Type {
	case queryTypeRoute:
		var q RouteRequestV2
		if e := strict(&q); e != nil {
			return nil, e
		}
		return &queryEnvelope{Route: &q.QueryRequest}, nil
	case queryTypeSequence:
		var q SequenceRequestV2
		if e := strict(&q); e != nil {
			return nil, e
		}
		if len(q.Legs) > maxWireLegs {
			return nil, errf(codeInvalidRequest, "at most %d sequence legs (got %d)", maxWireLegs, len(q.Legs))
		}
		for j, leg := range q.Legs {
			if len(leg.Keywords) > maxWireKeywords {
				return nil, errf(codeInvalidRequest, "sequence leg %d carries %d keywords; at most %d", j, len(leg.Keywords), maxWireKeywords)
			}
		}
		return &queryEnvelope{Sequence: &q}, nil
	case "":
		return nil, errf(codeUnknownType, `v2 query envelope needs a "type" discriminator ("route" or "sequence")`)
	default:
		return nil, errf(codeUnknownType, `unknown query type %q (want "route" or "sequence")`, sniff.Type)
	}
}

// BuildSequenceRequest resolves the wire envelope into a
// search.SequenceRequest against the venue's engine, with the same Δ/η
// resolution as route queries.
func (q *SequenceRequestV2) BuildSequenceRequest(eng *search.Engine) (search.SequenceRequest, error) {
	req := search.SequenceRequest{
		Ps:    q.Start.Point(),
		Pt:    q.Terminal.Point(),
		K:     q.K,
		Alpha: q.Alpha,
		Tau:   q.Tau,
		Beam:  q.Beam,
	}
	req.Legs = make([]search.SequenceLeg, len(q.Legs))
	for j, leg := range q.Legs {
		req.Legs[j] = search.SequenceLeg{QW: leg.Keywords}
	}
	var err error
	if req.Delta, err = resolveDelta(eng, req.Ps, req.Pt, q.Delta, q.Eta); err != nil {
		return req, err
	}
	req.Conditions, err = q.Conditions.Overlay()
	return req, err
}

// SequenceRouteWire is one returned sequence route on the wire.
type SequenceRouteWire struct {
	Waypoints []int       `json:"waypoints"`
	Doors     []int       `json:"doors"`
	Entered   []int       `json:"entered"`
	LegRho    []float64   `json:"leg_rho"`
	LegSims   [][]float64 `json:"leg_sims"`
	Rho       float64     `json:"rho"`
	Dist      float64     `json:"dist"`
	Psi       float64     `json:"psi"`
}

// SequenceStatsWire is the client-facing subset of search.SequenceStats.
// dijkstras and plans count the planner's own work: the stages it ran
// (routes are assembled from its stage records, not by re-running stages)
// and the plans it finished, which stop once the top k are decided — about
// 11 and 4 on 3-leg, k = 4 queries on the real mall.
type SequenceStatsWire struct {
	ElapsedMicros int64 `json:"elapsed_us"`
	Dijkstras     int   `json:"dijkstras"`
	Prefixes      int   `json:"prefixes"`
	Plans         int   `json:"plans"`
	Truncated     bool  `json:"truncated,omitempty"`
}

// SequenceResponse is the JSON body of a successful sequence query.
type SequenceResponse struct {
	Venue  string              `json:"venue"`
	Type   string              `json:"type"`
	Delta  float64             `json:"delta"`
	Routes []SequenceRouteWire `json:"routes"`
	Stats  SequenceStatsWire   `json:"stats"`
}

// BuildSequenceResponse converts a sequence result for the wire.
func BuildSequenceResponse(venue string, req search.SequenceRequest, res *search.SequenceResult) *SequenceResponse {
	out := &SequenceResponse{
		Venue:  venue,
		Type:   queryTypeSequence,
		Delta:  req.Delta,
		Routes: make([]SequenceRouteWire, len(res.Routes)),
		Stats: SequenceStatsWire{
			ElapsedMicros: res.Stats.Elapsed.Microseconds(),
			Dijkstras:     res.Stats.Dijkstras,
			Prefixes:      res.Stats.Prefixes,
			Plans:         res.Stats.Plans,
			Truncated:     res.Stats.Truncated,
		},
	}
	for i := range res.Routes {
		out.Routes[i] = sequenceRouteWire(&res.Routes[i])
	}
	return out
}

func sequenceRouteWire(r *search.SequenceRoute) SequenceRouteWire {
	w := SequenceRouteWire{
		Waypoints: make([]int, len(r.Waypoints)),
		Doors:     make([]int, len(r.Doors)),
		Entered:   make([]int, len(r.Entered)),
		LegRho:    r.LegRho,
		LegSims:   r.LegSims,
		Rho:       r.Rho,
		Dist:      r.Dist,
		Psi:       r.Psi,
	}
	for i, v := range r.Waypoints {
		w.Waypoints[i] = int(v)
	}
	for i, d := range r.Doors {
		w.Doors[i] = int(d)
	}
	for i, v := range r.Entered {
		w.Entered[i] = int(v)
	}
	return w
}

// ConditionsPublishResponse answers PUT /v2/venues/{venue}/conditions.
type ConditionsPublishResponse struct {
	Venue    string `json:"venue"`
	Revision uint64 `json:"revision"`
	Closed   int    `json:"closed"`
	Delayed  int    `json:"delayed"`
}
