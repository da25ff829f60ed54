package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// doJSON issues one request with a JSON body and returns status and body.
func doJSON(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, out
}

func postV2(t *testing.T, ts *httptest.Server, venue string, body []byte) (int, []byte) {
	t.Helper()
	return doJSON(t, http.MethodPost, ts.URL+"/v2/venues/"+venue+"/query", body)
}

func putConditions(t *testing.T, ts *httptest.Server, venue string, body []byte) (int, []byte) {
	t.Helper()
	return doJSON(t, http.MethodPut, ts.URL+"/v2/venues/"+venue+"/conditions", body)
}

// mustPublish publishes an overlay and returns the revision it was assigned.
func mustPublish(t *testing.T, ts *httptest.Server, venue string, body string) uint64 {
	t.Helper()
	code, out := putConditions(t, ts, venue, []byte(body))
	if code != http.StatusOK {
		t.Fatalf("publish %s: status %d: %s", body, code, out)
	}
	var resp ConditionsPublishResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("decoding publish response: %v", err)
	}
	return resp.Revision
}

// TestV1V2RouteOracle is the versioning gate: a route query sent through the
// v2 envelope must serve the byte-identical response body to the same query
// on /v1, modulo the wall-clock stats field that differs on every run.
func TestV1V2RouteOracle(t *testing.T) {
	_, ts, _ := newBakedServer(t, Config{MaxInFlight: 64})
	canon := func(raw []byte) []byte {
		t.Helper()
		var resp QueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		resp.Stats.ElapsedMicros = 0
		out, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for i, wq := range wireCases {
		v1Body, err := json.Marshal(&wq)
		if err != nil {
			t.Fatal(err)
		}
		v2Body, err := json.Marshal(&RouteRequestV2{Type: queryTypeRoute, QueryRequest: wq})
		if err != nil {
			t.Fatal(err)
		}
		c1, r1 := postQueryHTTP(t, ts, "mall", v1Body)
		c2, r2 := postV2(t, ts, "mall", v2Body)
		if c1 != http.StatusOK || c2 != http.StatusOK {
			t.Fatalf("case %d: v1 status %d, v2 status %d: %s %s", i, c1, c2, r1, r2)
		}
		if n1, n2 := canon(r1), canon(r2); !bytes.Equal(n1, n2) {
			t.Errorf("case %d: v1 and v2 responses differ\n v1: %s\n v2: %s", i, n1, n2)
		}
	}
}

// TestServeSequenceV2 gates the served sequence path against an in-process
// SearchSequence over an engine loaded from the same snapshot: routes must
// be identical, legs must come back in request order.
func TestServeSequenceV2(t *testing.T) {
	_, ts, oracle := newBakedServer(t, Config{MaxInFlight: 64})
	wq := SequenceRequestV2{
		Type:     queryTypeSequence,
		Start:    PointWire{2, 5, 0},
		Terminal: PointWire{38, 5, 0},
		Legs: []SequenceLegWire{
			{Keywords: []string{"coffee"}},
			{Keywords: []string{"phone"}},
		},
		K:     3,
		Delta: 200,
		Alpha: 0.5,
		Tau:   0.2,
	}
	body, err := json.Marshal(&wq)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postV2(t, ts, "mall", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var got SequenceResponse
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if got.Venue != "mall" || got.Type != "sequence" {
		t.Errorf("envelope fields: venue=%q type=%q", got.Venue, got.Type)
	}
	if len(got.Routes) == 0 {
		t.Fatal("no routes; fixture should satisfy coffee→phone within Δ=200")
	}
	for i, r := range got.Routes {
		if len(r.Waypoints) != 2 || len(r.LegRho) != 2 || len(r.LegSims) != 2 {
			t.Errorf("route %d: want one waypoint/rho/sims per leg, got %+v", i, r)
		}
	}

	req, err := wq.BuildSequenceRequest(oracle)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oracle.SearchSequence(req)
	if err != nil {
		t.Fatal(err)
	}
	want := BuildSequenceResponse("mall", req, res)
	if !reflect.DeepEqual(got.Routes, want.Routes) {
		t.Errorf("served routes differ from in-process oracle\n got: %+v\nwant: %+v", got.Routes, want.Routes)
	}
}

// publishRejects are the conditions publishes TestConditionsPublish expects
// to fail, leaving the published revision unchanged.
var publishRejects = []struct {
	name, venue, body string
	status            int
	code              string
}{
	{"door out of range", "mall", `{"close":[99]}`, http.StatusBadRequest, "invalid_request"},
	// Converted unchecked, these IDs would wrap onto door 5 and publish.
	{"door past the ID range", "mall", `{"close":[4294967301]}`, http.StatusBadRequest, "invalid_request"},
	{"delay door past the ID range", "mall", `{"delay":{"4294967301":5}}`, http.StatusBadRequest, "invalid_request"},
	{"unknown venue", "atlantis", `{"close":[1]}`, http.StatusNotFound, "unknown_venue"},
	{"malformed body", "mall", `{"close":`, http.StatusBadRequest, "malformed_request"},
	{"unknown field", "mall", `{"shut":[1]}`, http.StatusBadRequest, "malformed_request"},
}

// TestConditionsPublish covers the publish endpoint: revisions increment,
// overlays validate against the venue's doors, and published conditions
// become the default overlay for queries that carry none — while explicit
// conditions still win.
func TestConditionsPublish(t *testing.T) {
	srv, ts, _ := newBakedServer(t, Config{MaxInFlight: 64})

	queryRoutes := func(body []byte) []RouteWire {
		t.Helper()
		code, out := postQueryHTTP(t, ts, "mall", body)
		if code != http.StatusOK {
			t.Fatalf("query: status %d: %s", code, out)
		}
		var resp QueryResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Routes
	}
	coffee, err := json.Marshal(&wireCases[0]) // coffee K=3, no conditions
	if err != nil {
		t.Fatal(err)
	}
	// Baseline before anything is published.
	bare := queryRoutes(coffee)
	if len(bare) == 0 {
		t.Fatal("fixture coffee query should return routes")
	}

	if rev := mustPublish(t, ts, "mall", `{"close":[4]}`); rev != 1 {
		t.Errorf("first publish revision = %d, want 1", rev)
	}
	code, out := putConditions(t, ts, "mall", []byte(`{"delay":{"2":5}}`))
	var pub ConditionsPublishResponse
	if code != http.StatusOK {
		t.Fatalf("second publish: status %d: %s", code, out)
	}
	if err := json.Unmarshal(out, &pub); err != nil {
		t.Fatal(err)
	}
	if pub.Revision != 2 || pub.Closed != 0 || pub.Delayed != 1 {
		t.Errorf("second publish: %+v, want revision 2, 0 closed, 1 delayed", pub)
	}
	// The published delay is the default overlay: door 2 is on every
	// fixture route, so each route's distance grows by the penalty.
	delayed := queryRoutes(coffee)
	if reflect.DeepEqual(delayed, bare) {
		t.Error("published delay should change the default-overlay result")
	}

	for _, tc := range publishRejects {
		t.Run(tc.name, func(t *testing.T) {
			code, out := putConditions(t, ts, tc.venue, []byte(tc.body))
			if code != tc.status {
				t.Fatalf("status %d, want %d: %s", code, tc.status, out)
			}
			var eb ErrorBody
			if err := json.Unmarshal(out, &eb); err != nil || eb.Error.Code != tc.code {
				t.Errorf("error code %q (err %v), want %q", eb.Error.Code, err, tc.code)
			}
		})
	}

	// Closing both coffee shops removes them from every served route (the
	// zero-score direct route may remain — ToE ranks by ψ, not matches).
	if rev := mustPublish(t, ts, "mall", `{"close":[3,4]}`); rev != 3 {
		t.Errorf("revision = %d, want 3", rev)
	}
	closed := queryRoutes(coffee)
	if reflect.DeepEqual(closed, bare) {
		t.Error("published closures should change the default-overlay result")
	}
	for i, r := range closed {
		for _, d := range r.Doors {
			if d == 3 || d == 4 {
				t.Errorf("route %d traverses closed door %d: %+v", i, d, r)
			}
		}
	}
	// An explicit overlay on the request overrides the published one: with
	// the closures still published, an explicit delay-only overlay serves
	// the same routes the published delay did at revision 2.
	withCond := wireCases[0]
	withCond.Conditions = &ConditionsWire{Delay: map[int]float64{2: 5}}
	explicit, err := json.Marshal(&withCond)
	if err != nil {
		t.Fatal(err)
	}
	if got := queryRoutes(explicit); !reflect.DeepEqual(got, delayed) {
		t.Errorf("explicit conditions should override the published closures:\n got: %+v\nwant: %+v", got, delayed)
	}
	// An empty publish clears the overlay.
	if rev := mustPublish(t, ts, "mall", ``); rev != 4 {
		t.Errorf("revision = %d, want 4", rev)
	}
	if got := queryRoutes(coffee); !reflect.DeepEqual(got, bare) {
		t.Errorf("after clearing, routes differ from bare:\n got: %+v\nwant: %+v", got, bare)
	}

	if got := srv.met.publishes.Load(); got != 4 {
		t.Errorf("publishes counter = %d, want 4", got)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	id   string
	data string
}

// readSSE blocks until one full event arrives on the stream.
func readSSE(t *testing.T, br *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			if ev.name != "" || ev.data != "" {
				return ev
			}
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
}

// subscribeSSE opens a subscription stream and returns a reader over it.
func subscribeSSE(t *testing.T, ts *httptest.Server, venue string, env []byte) (*bufio.Reader, func()) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/venues/"+venue+"/subscribe", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe: status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe: Content-Type %q", ct)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

// expectResult asserts the next event on the stream is a result with the
// given revision id and returns its payload.
func expectResult(t *testing.T, br *bufio.Reader, id string) []byte {
	t.Helper()
	ev := readSSE(t, br)
	if ev.name != "result" || ev.id != id {
		t.Fatalf("event %s id=%s, want result id=%s (data %s)", ev.name, ev.id, id, ev.data)
	}
	return []byte(ev.data)
}

// TestSubscribeReroute drives the conditions bus end to end with two
// subscribers on disjoint routes. Event ids are revision numbers, so the id
// sequence each subscriber observes proves selective delivery without
// timing assumptions: a subscriber's next event id skipping a revision
// proves that revision pushed nothing to it.
func TestSubscribeReroute(t *testing.T) {
	srv, ts, _ := newBakedServer(t, Config{MaxInFlight: 64})

	coffeeEnv, err := json.Marshal(&RouteRequestV2{Type: queryTypeRoute, QueryRequest: wireCases[0]})
	if err != nil {
		t.Fatal(err)
	}
	coat := QueryRequest{
		Start:    PointWire{2, 5, 0},
		Terminal: PointWire{38, 5, 0},
		Keywords: []string{"coat"},
		K:        2,
		Delta:    110,
		Alpha:    0.5,
		Tau:      0.2,
	}
	coatEnv, err := json.Marshal(&RouteRequestV2{Type: queryTypeRoute, QueryRequest: coat})
	if err != nil {
		t.Fatal(err)
	}

	subA, closeA := subscribeSSE(t, ts, "mall", coffeeEnv) // routes via starbucks(3)/costa(4)
	defer closeA()
	initA := expectResult(t, subA, "0")
	subB, closeB := subscribeSSE(t, ts, "mall", coatEnv) // routes via zara(7)/hm(8)
	defer closeB()
	expectResult(t, subB, "0")

	// The initial event must be the same answer a fresh v2 query serves.
	var initResp, freshResp QueryResponse
	if err := json.Unmarshal(initA, &initResp); err != nil {
		t.Fatalf("initial payload: %v", err)
	}
	code, fresh := postV2(t, ts, "mall", coffeeEnv)
	if code != http.StatusOK {
		t.Fatalf("fresh query: status %d: %s", code, fresh)
	}
	if err := json.Unmarshal(fresh, &freshResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(initResp.Routes, freshResp.Routes) {
		t.Errorf("initial push differs from fresh query:\npush:  %+v\nfresh: %+v", initResp.Routes, freshResp.Routes)
	}

	// rev 1 closes costa: A re-routes, B is untouched.
	mustPublish(t, ts, "mall", `{"close":[4]}`)
	expectResult(t, subA, "1")
	// rev 2 keeps costa closed and delays apple's door, which neither
	// subscriber's routes enter: nobody re-routes.
	mustPublish(t, ts, "mall", `{"close":[4],"delay":{"5":5}}`)
	// rev 3 closes both coffee shops: A re-routes (to an empty result). A's
	// event id jumping 1→3 proves rev 2 pushed nothing to it.
	mustPublish(t, ts, "mall", `{"close":[3,4]}`)
	expectResult(t, subA, "3")
	// rev 4 additionally closes zara: B's first re-route. B's id jumping
	// 0→4 proves revisions 1–3 pushed nothing to it.
	mustPublish(t, ts, "mall", `{"close":[3,4,7]}`)
	expectResult(t, subB, "4")
	// rev 5 reopens the coffee shops: A re-routes, and its id jumping 3→5
	// proves rev 4 pushed nothing to it.
	mustPublish(t, ts, "mall", `{"close":[7]}`)
	payload := expectResult(t, subA, "5")

	// A pushed re-route carries the same routes a fresh v2 query serves
	// under the published revision.
	var pushResp QueryResponse
	if err := json.Unmarshal(payload, &pushResp); err != nil {
		t.Fatalf("pushed payload: %v", err)
	}
	code, fresh = postV2(t, ts, "mall", coffeeEnv)
	if code != http.StatusOK {
		t.Fatalf("fresh query: status %d: %s", code, fresh)
	}
	if err := json.Unmarshal(fresh, &freshResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pushResp.Routes, freshResp.Routes) {
		t.Errorf("pushed re-route differs from fresh query:\npush:  %+v\nfresh: %+v", pushResp.Routes, freshResp.Routes)
	}

	if got := srv.met.pushes.Load(); got != 4 {
		t.Errorf("pushes counter = %d, want 4 (A:3, B:1)", got)
	}
	if got := srv.bus.subscribers(); got != 2 {
		t.Errorf("subscribers gauge = %d, want 2", got)
	}
}

// TestSubscribeErrors covers the subscription error surface: the cap, bad
// envelopes, unknown venues and invalid queries all fail before the stream
// commits to 200.
func TestSubscribeErrors(t *testing.T) {
	_, ts, _ := newBakedServer(t, Config{MaxInFlight: 64, MaxSubscribers: 1})
	env, err := json.Marshal(&RouteRequestV2{Type: queryTypeRoute, QueryRequest: wireCases[0]})
	if err != nil {
		t.Fatal(err)
	}
	_, closeA := subscribeSSE(t, ts, "mall", env)
	defer closeA()

	expect := func(venue string, body []byte, status int, code string) {
		t.Helper()
		got, out := doJSON(t, http.MethodPost, ts.URL+"/v2/venues/"+venue+"/subscribe", body)
		if got != status {
			t.Fatalf("status %d, want %d: %s", got, status, out)
		}
		var eb ErrorBody
		if err := json.Unmarshal(out, &eb); err != nil || eb.Error.Code != code {
			t.Errorf("error code %q (err %v), want %q", eb.Error.Code, err, code)
		}
	}
	expect("mall", env, http.StatusTooManyRequests, "subscriber_limit")

	_, ts2, _ := newBakedServer(t, Config{MaxInFlight: 64})
	expect2 := func(venue string, body []byte, status int, code string) {
		t.Helper()
		got, out := doJSON(t, http.MethodPost, ts2.URL+"/v2/venues/"+venue+"/subscribe", body)
		if got != status {
			t.Fatalf("status %d, want %d: %s", got, status, out)
		}
		var eb ErrorBody
		if err := json.Unmarshal(out, &eb); err != nil || eb.Error.Code != code {
			t.Errorf("error code %q (err %v), want %q", eb.Error.Code, err, code)
		}
	}
	expect2("atlantis", env, http.StatusNotFound, "unknown_venue")
	expect2("mall", []byte(`{"k":1}`), http.StatusBadRequest, "unknown_type")
	both := wireCases[0]
	both.Delta, both.Eta = 50, 1.5
	bad, _ := json.Marshal(&RouteRequestV2{Type: queryTypeRoute, QueryRequest: both})
	expect2("mall", bad, http.StatusBadRequest, "invalid_request")
}

// TestSubscribeDrain: shutdown ends live streams and new subscriptions are
// refused with the draining code.
func TestSubscribeDrain(t *testing.T) {
	srv, ts, _ := newBakedServer(t, Config{MaxInFlight: 64})
	env, err := json.Marshal(&RouteRequestV2{Type: queryTypeRoute, QueryRequest: wireCases[0]})
	if err != nil {
		t.Fatal(err)
	}
	br, closeSub := subscribeSSE(t, ts, "mall", env)
	defer closeSub()
	expectResult(t, br, "0")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := br.ReadString('\n'); err != io.EOF {
		t.Errorf("live stream after drain: err %v, want EOF", err)
	}
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v2/venues/mall/subscribe", env)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("subscribe while draining: status %d: %s", code, out)
	}
	var eb ErrorBody
	if err := json.Unmarshal(out, &eb); err != nil || eb.Error.Code != "draining" {
		t.Errorf("error code %q (err %v), want draining", eb.Error.Code, err)
	}
}
