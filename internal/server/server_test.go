package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ikrq/internal/gen"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
)

// wireCases span the fixture mall's workload: t-words, i-words, mixed,
// a live-conditions overlay, η-derived Δ, and an uncoverable keyword.
// Door IDs: 0–2 are the hallway connectors, 3–8 the shop doors in
// declaration order (starbucks…hm).
var wireCases = []QueryRequest{
	{Start: PointWire{2, 5, 0}, Terminal: PointWire{38, 5, 0}, Keywords: []string{"coffee"}, K: 3, Delta: 80, Alpha: 0.5, Tau: 0.2},
	{Start: PointWire{2, 5, 0}, Terminal: PointWire{38, 5, 0}, Keywords: []string{"coffee", "laptop"}, K: 4, Delta: 100, Alpha: 0.5, Tau: 0.2},
	{Start: PointWire{2, 5, 0}, Terminal: PointWire{38, 5, 0}, Keywords: []string{"tea", "tv"}, K: 5, Delta: 110, Alpha: 0.3, Tau: 0.2},
	{Start: PointWire{2, 5, 0}, Terminal: PointWire{38, 5, 0}, Keywords: []string{"coffee", "coat"}, K: 4, Delta: 110, Alpha: 0.5, Tau: 0.2,
		Conditions: &ConditionsWire{Close: []int{4}, Delay: map[int]float64{2: 5}}},
	{Start: PointWire{2, 5, 0}, Terminal: PointWire{38, 5, 0}, Keywords: []string{"phone"}, K: 3, Eta: 1.8, Alpha: 0.5, Tau: 0.2},
	{Start: PointWire{2, 5, 0}, Terminal: PointWire{38, 5, 0}, Keywords: []string{"nosuchword"}, K: 3, Delta: 90, Alpha: 0.5, Tau: 0.2},
}

// newBakedServer bakes the fixture engine to disk and returns an HTTP test
// server over it plus an independently loaded in-process oracle engine.
func newBakedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *search.Engine) {
	t.Helper()
	root := t.TempDir()
	path := bakeSnapshotIn(t, root, "mall.ikrq", testEngine(t))
	reg := NewRegistry(0)
	if err := reg.Add(VenueConfig{Name: "mall", Path: path}); err != nil {
		t.Fatal(err)
	}
	if cfg.SnapshotRoot == "" {
		cfg.SnapshotRoot = root // reload path overrides resolve here
	}
	srv := New(reg, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oracle, err := snapshot.LoadEngine(f)
	if err != nil {
		t.Fatalf("loading oracle engine: %v", err)
	}
	return srv, ts, oracle
}

func postQueryHTTP(t *testing.T, ts *httptest.Server, venue string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/venues/"+venue+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, out
}

// TestServeOracleAllVariants is the acceptance gate: for every Table III
// variant and every wire case, concurrently served HTTP results must be
// byte-identical (marshalled RouteWire JSON) to an in-process
// Engine.Search over an engine loaded from the same snapshot.
func TestServeOracleAllVariants(t *testing.T) {
	// The whole variant × case product runs concurrently; admit all of it
	// (the default in-flight bound is sized to GOMAXPROCS and would shed).
	srv, ts, oracle := newBakedServer(t, Config{MaxInFlight: 256})
	capExp := srv.Config().MaxExpansions

	var wg sync.WaitGroup
	for _, v := range search.Variants() {
		for ci := range wireCases {
			wq := wireCases[ci]
			wq.Variant = string(v)
			wg.Add(1)
			go func() {
				defer wg.Done()
				name := fmt.Sprintf("%s/case%d", wq.Variant, ci)

				req, err := wq.BuildRequest(oracle)
				if err != nil {
					t.Errorf("%s: BuildRequest: %v", name, err)
					return
				}
				opt, err := search.OptionsFor(search.Variant(wq.Variant))
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				opt.MaxExpansions = capExp
				res, err := oracle.Search(req, opt)
				if err != nil {
					t.Errorf("%s: in-process search: %v", name, err)
					return
				}
				want, err := json.Marshal(BuildResponse("mall", search.Variant(wq.Variant), req, res).Routes)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}

				body, err := json.Marshal(wq)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				status, raw := postQueryHTTP(t, ts, "mall", body)
				if status != http.StatusOK {
					t.Errorf("%s: status %d: %s", name, status, raw)
					return
				}
				var resp QueryResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					t.Errorf("%s: decoding response: %v", name, err)
					return
				}
				got, err := json.Marshal(resp.Routes)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: served routes differ from in-process search\n got: %s\nwant: %s", name, got, want)
				}
				if resp.Venue != "mall" || resp.Variant != wq.Variant {
					t.Errorf("%s: response envelope venue=%q variant=%q", name, resp.Venue, resp.Variant)
				}
				if resp.Delta != req.Delta {
					t.Errorf("%s: response delta %v, want %v", name, resp.Delta, req.Delta)
				}
			}()
		}
	}
	wg.Wait()

	// The registry should report the venue loaded with served queries.
	resp, err := http.Get(ts.URL + "/v1/venues")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var venues struct{ Venues []VenueStatus }
	if err := json.NewDecoder(resp.Body).Decode(&venues); err != nil {
		t.Fatal(err)
	}
	if len(venues.Venues) != 1 || !venues.Venues[0].Loaded || venues.Venues[0].Queries == 0 {
		t.Errorf("venue status after serving: %+v", venues.Venues)
	}
	// A loaded venue reports its resident footprint and backend kind.
	if v := venues.Venues[0]; v.ResidentBytes <= 0 || v.Backend == "" {
		t.Errorf("loaded venue missing memory accounting: %+v", v)
	}
}

// TestErrorPaths exercises every structured client-error path.
func TestErrorPaths(t *testing.T) {
	_, ts, _ := newBakedServer(t, Config{})
	valid := func(mut func(*QueryRequest)) []byte {
		wq := wireCases[0]
		if mut != nil {
			mut(&wq)
		}
		b, err := json.Marshal(wq)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name   string
		venue  string
		body   []byte
		status int
		code   string
	}{
		{"unknown venue", "atlantis", valid(nil), http.StatusNotFound, "unknown_venue"},
		{"malformed json", "mall", []byte(`{"start":`), http.StatusBadRequest, "malformed_request"},
		{"oversized body", "mall", []byte(`{"k":` + strings.Repeat(" ", 2<<20) + `1}`),
			http.StatusRequestEntityTooLarge, "request_too_large"},
		{"unknown field", "mall", []byte(`{"k":1,"delta":50,"wat":true}`), http.StatusBadRequest, "malformed_request"},
		{"unknown variant", "mall", valid(func(q *QueryRequest) { q.Variant = "ToE\\X" }), http.StatusBadRequest, "unknown_variant"},
		{"no delta or eta", "mall", valid(func(q *QueryRequest) { q.Delta, q.Eta = 0, 0 }), http.StatusBadRequest, "invalid_request"},
		{"delta and eta", "mall", valid(func(q *QueryRequest) { q.Eta = 1.5 }), http.StatusBadRequest, "invalid_request"},
		{"bad k", "mall", valid(func(q *QueryRequest) { q.K = 0 }), http.StatusBadRequest, "invalid_request"},
		{"bad alpha", "mall", valid(func(q *QueryRequest) { q.Alpha = 1.5 }), http.StatusBadRequest, "invalid_request"},
		{"point outside space", "mall", valid(func(q *QueryRequest) { q.Start = PointWire{-500, -500, 3} }), http.StatusBadRequest, "invalid_request"},
		{"conditions door out of range", "mall", valid(func(q *QueryRequest) {
			q.Conditions = &ConditionsWire{Close: []int{9999}}
		}), http.StatusBadRequest, "invalid_request"},
		{"conditions negative delay", "mall", valid(func(q *QueryRequest) {
			q.Conditions = &ConditionsWire{Delay: map[int]float64{1: -4}}
		}), http.StatusBadRequest, "invalid_request"},
		{"too many keywords", "mall", valid(tooManyKeywords), http.StatusBadRequest, "invalid_request"},
		{"conditions door past the ID range", "mall", valid(wideDoor), http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postQueryHTTP(t, ts, tc.venue, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, raw)
			}
			var eb ErrorBody
			if err := json.Unmarshal(raw, &eb); err != nil {
				t.Fatalf("error body not structured JSON: %v (%s)", err, raw)
			}
			if eb.Error.Code != tc.code {
				t.Errorf("error code %q, want %q (message %q)", eb.Error.Code, tc.code, eb.Error.Message)
			}
			if eb.Error.Message == "" {
				t.Error("error message empty")
			}
		})
	}

	// The keyword cap and the door-ID range hold on the v2 route envelope
	// too, and the message names what was sent.
	for _, tc := range []struct {
		name string
		mut  func(*QueryRequest)
		msg  string
	}{
		{"too many keywords", tooManyKeywords, "17 keywords"},
		{"conditions door past the ID range", wideDoor, "door 4294967301"},
	} {
		t.Run("v2 "+tc.name, func(t *testing.T) {
			wq := wireCases[0]
			tc.mut(&wq)
			body, err := json.Marshal(&RouteRequestV2{Type: queryTypeRoute, QueryRequest: wq})
			if err != nil {
				t.Fatal(err)
			}
			status, raw := postV2(t, ts, "mall", body)
			var eb ErrorBody
			if err := json.Unmarshal(raw, &eb); err != nil || status != http.StatusBadRequest || eb.Error.Code != "invalid_request" {
				t.Fatalf("status %d, body %s; want 400 invalid_request", status, raw)
			}
			if !strings.Contains(eb.Error.Message, tc.msg) {
				t.Errorf("message %q does not name %q", eb.Error.Message, tc.msg)
			}
		})
	}
}

// tooManyKeywords puts one keyword past the wire cap on a query.
func tooManyKeywords(q *QueryRequest) {
	q.Keywords = strings.Fields(strings.Repeat("coffee ", maxWireKeywords+1))
}

// wideDoor closes a door ID that does not fit a model.DoorID: converted
// unchecked it would wrap onto door 5.
func wideDoor(q *QueryRequest) {
	q.Conditions = &ConditionsWire{Close: []int{4294967301}}
}

// blockedRegistry returns a registry whose single venue "slow" blocks in
// its loader until release is closed; started is closed once the loader
// has been entered (i.e. a request holds the admission semaphore).
func blockedRegistry(t *testing.T, eng *search.Engine) (reg *Registry, started, release chan struct{}) {
	t.Helper()
	started = make(chan struct{})
	release = make(chan struct{})
	reg = NewRegistry(0)
	if err := reg.Add(VenueConfig{Name: "slow", Path: "unused"}); err != nil {
		t.Fatal(err)
	}
	reg.SetLoader(func(VenueConfig) (*search.Engine, error) {
		close(started)
		<-release
		return eng, nil
	})
	return reg, started, release
}

// TestSaturationSheds429 pins the admission semaphore with a query stuck
// in a blocking loader, then asserts the next arrival is shed with 429,
// Retry-After, and the structured overload body — deterministically, with
// no timing assumptions.
func TestSaturationSheds429(t *testing.T) {
	reg, started, release := blockedRegistry(t, testEngine(t))
	srv := New(reg, Config{MaxInFlight: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(wireCases[0])
	first := make(chan int, 1)
	go func() {
		status, _ := postQueryHTTP(t, ts, "slow", body)
		first <- status
	}()
	<-started // the first query holds the only in-flight slot

	resp, err := http.Post(ts.URL+"/v1/venues/slow/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want %q", ra, "2")
	}
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code != "overloaded" || eb.Error.RetryAfterSeconds != 2 {
		t.Errorf("shed body: %s (err %v)", raw, err)
	}

	close(release)
	if status := <-first; status != http.StatusOK {
		t.Errorf("pinned query finished with %d, want 200", status)
	}
}

// explosiveServer serves the 1-floor synthetic mall (141 partitions) with
// the expansion cap disabled and returns a wire query whose uncapped ToE\P
// search runs for minutes — the deterministic way to have a query
// guaranteed to still be in flight when a deadline or disconnect lands.
// The tiny fixture mall cannot play this role: its route space is small
// enough that even ToE\P drains in microseconds.
func explosiveServer(t *testing.T) (*Server, *httptest.Server, QueryRequest) {
	t.Helper()
	mall, _, idx, err := gen.SyntheticMall(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	smp := gen.NewSampler(mall.Space, idx, eng.PathFinder(), 7)
	req, err := smp.Instance(gen.DefaultSampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	if err := reg.Add(VenueConfig{Name: "synth", Path: "unused"}); err != nil {
		t.Fatal(err)
	}
	reg.SetLoader(func(VenueConfig) (*search.Engine, error) { return eng, nil })
	srv := New(reg, Config{MaxExpansions: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	wq := QueryRequest{
		Start:    PointWire{X: req.Ps.X, Y: req.Ps.Y, Floor: req.Ps.Floor},
		Terminal: PointWire{X: req.Pt.X, Y: req.Pt.Y, Floor: req.Pt.Floor},
		Keywords: req.QW,
		K:        9,
		Delta:    5000, // astronomically many unpruned prime-free routes
		Alpha:    req.Alpha,
		Tau:      req.Tau,
		Variant:  `ToE\P`,
	}
	return srv, ts, wq
}

// TestDeadline504 runs an intentionally explosive uncapped ToE\P query
// under a 1ms client deadline: the search must abort between expansion
// batches and surface as 504 deadline_exceeded.
func TestDeadline504(t *testing.T) {
	_, ts, wq := explosiveServer(t)
	wq.TimeoutMillis = 1
	body, _ := json.Marshal(wq)
	status, raw := postQueryHTTP(t, ts, "synth", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", status, raw)
	}
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code != "deadline_exceeded" {
		t.Errorf("deadline body: %s (err %v)", raw, err)
	}
}

// TestClientDisconnect cancels the client context mid-query and asserts
// the server aborts the search and counts a disconnect rather than
// leaking the in-flight query until its deadline.
func TestClientDisconnect(t *testing.T) {
	srv, ts, wq := explosiveServer(t)
	body, _ := json.Marshal(wq)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/venues/synth/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.disconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the disconnect; query still running?")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulDrain starts a real listener, pins one query in-flight,
// begins Shutdown, and asserts: healthz flips to draining, the pinned
// query still completes with 200, and Serve returns ErrServerClosed.
func TestGracefulDrain(t *testing.T) {
	reg, started, release := blockedRegistry(t, testEngine(t))
	srv := New(reg, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	body, _ := json.Marshal(wireCases[0])
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/venues/slow/query", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Shutdown closed the draining gate synchronously before waiting on
	// connections; health must report draining via the handler.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	hreq, _ := http.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, hreq)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("healthz during drain: %d %s", rec.Code, rec.Body.String())
	}

	close(release)
	if status := <-first; status != http.StatusOK {
		t.Errorf("in-flight query during drain finished with %d, want 200", status)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestHealthzAndVars sanity-checks the operational endpoints.
func TestHealthzAndVars(t *testing.T) {
	_, ts, _ := newBakedServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	body, _ := json.Marshal(wireCases[0])
	if status, raw := postQueryHTTP(t, ts, "mall", body); status != http.StatusOK {
		t.Fatalf("query %d: %s", status, raw)
	}
	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars struct {
		Queries struct {
			Total uint64 `json:"total"`
			OK    uint64 `json:"ok"`
		} `json:"queries"`
		LatencyUS struct {
			P50 int64 `json:"p50"`
			P99 int64 `json:"p99"`
		} `json:"latency_us"`
		QueryCache struct {
			Misses uint64 `json:"misses"`
		} `json:"query_cache"`
		Memory struct {
			ResidentBytesTotal int64                      `json:"resident_bytes_total"`
			Venues             map[string]search.MemStats `json:"venues"`
		} `json:"memory"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Queries.OK == 0 || vars.Queries.Total == 0 {
		t.Errorf("vars did not count the query: %+v", vars)
	}
	if vars.LatencyUS.P99 < vars.LatencyUS.P50 {
		t.Errorf("p99 %d < p50 %d", vars.LatencyUS.P99, vars.LatencyUS.P50)
	}
	if vars.QueryCache.Misses == 0 {
		t.Errorf("query cache counters not surfaced: %+v", vars)
	}
	ms, ok := vars.Memory.Venues["mall"]
	if !ok || ms.TotalBytes <= 0 || ms.GraphBytes <= 0 || ms.IndexBytes <= 0 {
		t.Errorf("memory vars missing the loaded venue: %+v", vars.Memory)
	}
	if vars.Memory.ResidentBytesTotal != ms.TotalBytes {
		t.Errorf("resident total %d != venue total %d", vars.Memory.ResidentBytesTotal, ms.TotalBytes)
	}
}
