package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ikrq/internal/search"
)

// newCachedServer is newBakedServer with the registry-level result cache
// enabled — the configuration cmd/ikrqd runs with by default.
func newCachedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	path := bakeSnapshot(t, testEngine(t))
	reg := NewRegistry(0)
	reg.EnableResultCache(search.CacheOptions{})
	if err := reg.Add(VenueConfig{Name: "mall", Path: path}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// mallCacheStats reads the mall venue's result-cache snapshot via the
// public venue status (the same data GET /v1/venues serves).
func mallCacheStats(t *testing.T, srv *Server) VenueStatus {
	t.Helper()
	for _, st := range srv.Registry().Status() {
		if st.Name == "mall" {
			return st
		}
	}
	t.Fatal("venue mall not in registry status")
	return VenueStatus{}
}

// TestServeCachedByteIdentical is the serving-path acceptance gate: a
// repeated identical query must be answered from the cache with a
// byte-identical HTTP body, and a conditions mutation must miss.
func TestServeCachedByteIdentical(t *testing.T) {
	srv, ts := newCachedServer(t, Config{})
	for ci, wq := range wireCases {
		body, err := json.Marshal(wq)
		if err != nil {
			t.Fatal(err)
		}
		s1, b1 := postQueryHTTP(t, ts, "mall", body)
		if s1 != http.StatusOK {
			t.Fatalf("case %d: first query %d: %s", ci, s1, b1)
		}
		hitsBefore := mallCacheStats(t, srv).ResultCache.Hits
		s2, b2 := postQueryHTTP(t, ts, "mall", body)
		if s2 != http.StatusOK {
			t.Fatalf("case %d: repeat query %d: %s", ci, s2, b2)
		}
		// Byte-identical including stats: a hit serves the miss's full
		// result — elapsed_us and work counters come from the original run.
		if !bytes.Equal(b1, b2) {
			t.Errorf("case %d: cached repeat body differs:\n first: %s\nrepeat: %s", ci, b1, b2)
		}
		if got := mallCacheStats(t, srv).ResultCache.Hits; got != hitsBefore+1 {
			t.Errorf("case %d: repeat did not hit the cache (hits %d -> %d)", ci, hitsBefore, got)
		}
	}

	// Mutating the conditions overlay is a different query: it must miss.
	mutated := wireCases[0]
	mutated.Conditions = &ConditionsWire{Delay: map[int]float64{0: 5}}
	body, _ := json.Marshal(mutated)
	st := mallCacheStats(t, srv).ResultCache
	hits, misses := st.Hits, st.Misses
	if s, b := postQueryHTTP(t, ts, "mall", body); s != http.StatusOK {
		t.Fatalf("mutated query %d: %s", s, b)
	}
	st = mallCacheStats(t, srv).ResultCache
	if st.Misses != misses+1 || st.Hits != hits {
		t.Errorf("conditions mutation hits/misses %d/%d -> %d/%d, want a pure miss",
			hits, misses, st.Hits, st.Misses)
	}
}

// TestCacheVarsAndVenueStatus checks the counter export surfaces: the
// result_cache aggregate in /debug/vars and the per-venue snapshot in
// GET /v1/venues.
func TestCacheVarsAndVenueStatus(t *testing.T) {
	_, ts := newCachedServer(t, Config{})
	body, _ := json.Marshal(wireCases[0])
	for i := 0; i < 3; i++ {
		if s, b := postQueryHTTP(t, ts, "mall", body); s != http.StatusOK {
			t.Fatalf("query %d: %s", s, b)
		}
	}

	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars struct {
		ResultCache struct {
			Hits      uint64 `json:"hits"`
			Misses    uint64 `json:"misses"`
			Entries   uint64 `json:"entries"`
			Bytes     uint64 `json:"resident_bytes"`
			Evictions uint64 `json:"evictions"`
		} `json:"result_cache"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.ResultCache.Hits != 2 || vars.ResultCache.Misses != 1 {
		t.Errorf("vars result_cache hits/misses = %d/%d, want 2/1", vars.ResultCache.Hits, vars.ResultCache.Misses)
	}
	if vars.ResultCache.Entries != 1 || vars.ResultCache.Bytes == 0 {
		t.Errorf("vars result_cache gauges = %d entries / %d bytes, want 1 entry and positive bytes",
			vars.ResultCache.Entries, vars.ResultCache.Bytes)
	}

	sresp, err := http.Get(ts.URL + "/v1/venues")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	raw, _ := io.ReadAll(sresp.Body)
	var listing struct {
		Venues []VenueStatus `json:"venues"`
	}
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatalf("decoding /v1/venues: %v\n%s", err, raw)
	}
	venues := listing.Venues
	if len(venues) != 1 || venues[0].ResultCache == nil {
		t.Fatalf("venue status missing result_cache: %s", raw)
	}
	if venues[0].ResultCache.Hits != 2 || venues[0].ResultCache.Misses != 1 {
		t.Errorf("venue result_cache hits/misses = %d/%d, want 2/1",
			venues[0].ResultCache.Hits, venues[0].ResultCache.Misses)
	}
}

// TestCacheOffVenueStatus pins the opt-out: without EnableResultCache the
// venue status carries no result_cache section and queries still serve.
func TestCacheOffVenueStatus(t *testing.T) {
	srv, ts, _ := newBakedServer(t, Config{})
	body, _ := json.Marshal(wireCases[0])
	if s, b := postQueryHTTP(t, ts, "mall", body); s != http.StatusOK {
		t.Fatalf("query %d: %s", s, b)
	}
	if st := mallCacheStats(t, srv); st.ResultCache != nil {
		t.Errorf("cache-off venue reports cache stats: %+v", st.ResultCache)
	}
}

// TestRegistryInvalidateResults checks the registry-level invalidation
// seam: the epoch bumps for a loaded venue, unknown venues error.
func TestRegistryInvalidateResults(t *testing.T) {
	srv, ts := newCachedServer(t, Config{})
	body, _ := json.Marshal(wireCases[0])
	postQueryHTTP(t, ts, "mall", body)
	before := mallCacheStats(t, srv).ResultCache.Epoch
	if err := srv.Registry().InvalidateResults("mall"); err != nil {
		t.Fatal(err)
	}
	if got := mallCacheStats(t, srv).ResultCache.Epoch; got != before+1 {
		t.Errorf("epoch %d -> %d after InvalidateResults, want +1", before, got)
	}
	// The entry from the old epoch must not serve: the next identical query
	// is a miss.
	st := mallCacheStats(t, srv).ResultCache
	postQueryHTTP(t, ts, "mall", body)
	after := mallCacheStats(t, srv).ResultCache
	if after.Misses != st.Misses+1 {
		t.Errorf("post-invalidation query was not a miss: %+v -> %+v", st, after)
	}
	if err := srv.Registry().InvalidateResults("nosuch"); err == nil {
		t.Error("InvalidateResults accepted an unknown venue")
	}
}
