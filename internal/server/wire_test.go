package server

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestBuildRequestEtaResolution(t *testing.T) {
	eng := testEngine(t)
	wq := wireCases[0]
	wq.Delta, wq.Eta = 0, 1.5
	req, err := wq.BuildRequest(eng)
	if err != nil {
		t.Fatal(err)
	}
	d := eng.PathFinder().PointToPoint(req.Ps, req.Pt)
	if math.IsInf(d, 1) || d <= 0 {
		t.Fatalf("fixture points not connected: %v", d)
	}
	if req.Delta != 1.5*d {
		t.Errorf("Delta = %v, want 1.5·%v", req.Delta, d)
	}
}

func TestBuildRequestRejects(t *testing.T) {
	eng := testEngine(t)
	for _, tc := range []struct {
		name string
		mut  func(*QueryRequest)
	}{
		{"neither delta nor eta", func(q *QueryRequest) { q.Delta, q.Eta = 0, 0 }},
		{"both delta and eta", func(q *QueryRequest) { q.Delta, q.Eta = 50, 1.5 }},
		{"eta over disconnected points", func(q *QueryRequest) {
			q.Delta, q.Eta = 0, 1.5
			q.Terminal = PointWire{2, 5, 7} // floor 7 does not exist
		}},
		{"keywords past the wire cap", tooManyKeywords},
		{"conditions door past the ID range", wideDoor},
	} {
		wq := wireCases[0]
		tc.mut(&wq)
		if _, err := wq.BuildRequest(eng); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// envelopeGolden is the table of v2 query bodies TestDecodeEnvelopeGolden
// pins; FuzzV2Envelope seeds from the same bodies.
var envelopeGolden = []struct {
	name     string
	body     string
	wantCode errorCode
	check    func(t *testing.T, env *queryEnvelope)
}{
	{
		name: "valid route",
		body: `{"type":"route","start":{"x":2,"y":5,"floor":0},"terminal":{"x":38,"y":5,"floor":0},` +
			`"keywords":["coffee"],"k":3,"delta":80,"alpha":0.5,"tau":0.2,"variant":"KoE*",` +
			`"conditions":{"close":[4],"delay":{"2":5}},"timeout_ms":250}`,
		check: func(t *testing.T, env *queryEnvelope) {
			q := env.Route
			if q == nil || env.Sequence != nil {
				t.Fatalf("envelope arms: %+v", env)
			}
			if q.Start != (PointWire{2, 5, 0}) || q.K != 3 || q.Delta != 80 ||
				q.Variant != "KoE*" || q.TimeoutMillis != 250 ||
				len(q.Keywords) != 1 || q.Keywords[0] != "coffee" {
				t.Errorf("route fields: %+v", q)
			}
			if q.Conditions == nil || len(q.Conditions.Close) != 1 || q.Conditions.Delay[2] != 5 {
				t.Errorf("route conditions: %+v", q.Conditions)
			}
		},
	},
	{
		name: "valid sequence",
		body: `{"type":"sequence","start":{"x":2,"y":5,"floor":0},"terminal":{"x":38,"y":5,"floor":0},` +
			`"legs":[{"keywords":["coffee"]},{"keywords":["phone","laptop"]}],"k":2,"eta":2.5,"alpha":0.5,"tau":0.2,"beam":16}`,
		check: func(t *testing.T, env *queryEnvelope) {
			q := env.Sequence
			if q == nil || env.Route != nil {
				t.Fatalf("envelope arms: %+v", env)
			}
			if q.Eta != 2.5 || q.Beam != 16 || len(q.Legs) != 2 ||
				len(q.Legs[1].Keywords) != 2 || q.Legs[1].Keywords[1] != "laptop" {
				t.Errorf("sequence fields: %+v", q)
			}
		},
	},
	{name: "missing discriminator", body: `{"k":3,"delta":80}`, wantCode: codeUnknownType},
	{name: "unknown discriminator", body: `{"type":"teleport","k":3}`, wantCode: codeUnknownType},
	{name: "unknown field in route", body: `{"type":"route","k":3,"delta":80,"wat":true}`, wantCode: codeMalformedRequest},
	{name: "unknown field in sequence", body: `{"type":"sequence","legs":[],"surprise":1}`, wantCode: codeMalformedRequest},
	{name: "malformed json", body: `{"type":"route",`, wantCode: codeMalformedRequest},
	{name: "wrong field type", body: `{"type":"route","k":"three"}`, wantCode: codeMalformedRequest},
	{name: "oversized legs", wantCode: codeInvalidRequest,
		body: `{"type":"sequence","start":{"x":1,"y":2,"floor":0},"terminal":{"x":3,"y":4,"floor":0},"delta":50,"k":1,"legs":[` +
			strings.Repeat(`{"keywords":["a"]},`, maxWireLegs) + `{"keywords":["a"]}]}`},
	{name: "oversized leg keywords", wantCode: codeInvalidRequest,
		body: `{"type":"sequence","start":{"x":1,"y":2,"floor":0},"terminal":{"x":3,"y":4,"floor":0},"delta":50,"k":1,"legs":[{"keywords":[` +
			strings.Repeat(`"a",`, maxWireKeywords) + `"a"]}]}`},
}

// TestDecodeEnvelopeGolden is the table-driven decode gate for every v2
// wire message: valid shapes round-trip, unknown fields and bad
// discriminators map to their taxonomy codes, wire caps reject oversized
// envelopes.
func TestDecodeEnvelopeGolden(t *testing.T) {
	for _, tc := range envelopeGolden {
		t.Run(tc.name, func(t *testing.T) {
			env, apiErr := decodeEnvelope(strings.NewReader(tc.body))
			if tc.wantCode != "" {
				if apiErr == nil {
					t.Fatalf("decoded, want %s", tc.wantCode)
				}
				if apiErr.code != tc.wantCode {
					t.Fatalf("code %s, want %s (%s)", apiErr.code, tc.wantCode, apiErr.msg)
				}
				return
			}
			if apiErr != nil {
				t.Fatalf("decode: %v", apiErr)
			}
			tc.check(t, env)
		})
	}
}

// TestSequenceResponseGolden pins the encoded shape of the v2 sequence
// response (field names and order are wire contract).
func TestSequenceResponseGolden(t *testing.T) {
	resp := &SequenceResponse{
		Venue: "mall",
		Type:  "sequence",
		Delta: 120,
		Routes: []SequenceRouteWire{{
			Waypoints: []int{4, 2},
			Doors:     []int{0, 4, 4, 1, 5, 5, 2},
			Entered:   []int{1, 4, 1, 2, 2, 2, 3},
			LegRho:    []float64{2, 1.5},
			LegSims:   [][]float64{{1}, {0.5}},
			Rho:       3.5,
			Dist:      62.5,
			Psi:       0.75,
		}},
		Stats: SequenceStatsWire{ElapsedMicros: 10, Dijkstras: 3, Prefixes: 4, Plans: 2},
	}
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"venue":"mall","type":"sequence","delta":120,` +
		`"routes":[{"waypoints":[4,2],"doors":[0,4,4,1,5,5,2],"entered":[1,4,1,2,2,2,3],` +
		`"leg_rho":[2,1.5],"leg_sims":[[1],[0.5]],"rho":3.5,"dist":62.5,"psi":0.75}],` +
		`"stats":{"elapsed_us":10,"dijkstras":3,"prefixes":4,"plans":2}}`
	if string(got) != want {
		t.Errorf("sequence response encoding drifted\n got: %s\nwant: %s", got, want)
	}
}

// TestErrorBodyGolden pins the error envelope, including the retryable flag
// stamped from the taxonomy.
func TestErrorBodyGolden(t *testing.T) {
	got, err := json.Marshal(wireError(codeVenueUnavailable, "snapshot load failed"))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"venue_unavailable","message":"snapshot load failed","retryable":true}}`
	if string(got) != want {
		t.Errorf("error body encoding drifted\n got: %s\nwant: %s", got, want)
	}
	if b, _ := json.Marshal(wireError(codeUnknownType, "x")); strings.Contains(string(b), "retryable") {
		t.Errorf("non-retryable code should omit the flag: %s", b)
	}
}

// TestReadmeErrorTable keeps the README error-code table in sync with the
// taxonomy: every code must appear in the README with its status, and the
// README must not document codes the server no longer emits.
func TestReadmeErrorTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for code, info := range errorTaxonomy {
		row := "`" + string(code) + "`"
		if !strings.Contains(readme, row) {
			t.Errorf("README is missing error code %s", code)
			continue
		}
		// The status must appear on the code's table row.
		line := readme[strings.Index(readme, row):]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		if !strings.Contains(line, http.StatusText(info.status)) && !strings.Contains(line, strconv.Itoa(info.status)) {
			t.Errorf("README row for %s does not mention status %d: %q", code, info.status, line)
		}
	}
}

func TestConditionsWireConversion(t *testing.T) {
	var nilWire *ConditionsWire
	if nilWire.Conditions() != nil {
		t.Error("nil wire should convert to nil overlay")
	}
	if (&ConditionsWire{}).Conditions() != nil {
		t.Error("empty wire should convert to nil overlay")
	}
	c := (&ConditionsWire{Close: []int{3, 7}, Delay: map[int]float64{5: 12.5}}).Conditions()
	if !c.Closed(3) || !c.Closed(7) || c.Penalty(5) != 12.5 || c.Closed(5) {
		t.Errorf("conversion wrong: %v", c)
	}
}
