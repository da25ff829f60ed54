package search

import (
	"math"
	"strings"
	"testing"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// overlayCases pair a request with a live-venue overlay on the testMall
// (doors: 0..2 hallway connectors h0-h1-h2-h3; 3..8 shop doors starbucks,
// costa, apple, samsung, zara, hm).
var overlayCases = []struct {
	name string
	req  Request
}{
	{"closed-shop", withCond(req([]string{"coffee"}, 3, 90),
		model.NewConditions().Close(4))}, // costa shut
	{"closed-corridor", withCond(req([]string{"coffee", "laptop"}, 4, 120),
		model.NewConditions().Close(1))}, // h1-h2 blocked: pt unreachable
	// k=2 here: with the corridor congested the class that visits BOTH
	// coffee shops enters the top-3, and such classes — revisiting an
	// already-covered keyword through a second shop — are structurally
	// outside KoE's search space (Algorithm 6 line 6 removes covered
	// keywords' partitions from the target set) on any engine, overlaid or
	// not. ToE still finds them; this suite pins overlay behaviour, not
	// that pre-existing KoE boundary.
	{"congested-connectors", withCond(req([]string{"coffee"}, 2, 140),
		model.NewConditions().Delay(0, 25).Delay(2, 10))},
	{"mixed", withCond(req([]string{"coffee", "coat"}, 5, 160),
		model.NewConditions().Close(3).Delay(1, 10).Delay(7, 5))},
	{"prices-a-detour", withCond(req([]string{"coffee"}, 3, 150),
		model.NewConditions().Delay(4, 60))}, // costa queue makes starbucks prime
	{"everything-shut", withCond(req([]string{"coffee"}, 3, 200),
		model.NewConditions().Close(3).Close(4))}, // no coffee reachable at all
}

func withCond(r Request, c *model.Conditions) Request {
	r.Conditions = c
	return r
}

// TestOverlayMatchesExhaustive is the overlay ground-truth gate: under
// closures and penalties every variant must agree with the exhaustive
// baseline (which honours the overlay hop by hop).
func TestOverlayMatchesExhaustive(t *testing.T) {
	e := testMall(t)
	diversified := []Variant{
		VariantToE, VariantToED, VariantToEB,
		VariantKoE, VariantKoED, VariantKoEB, VariantKoEStar,
	}
	for _, tc := range overlayCases {
		want, err := e.Exhaustive(tc.req, true)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		for _, v := range diversified {
			opt, err := OptionsFor(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Search(tc.req, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", v, tc.name, err)
			}
			sameResults(t, string(v)+"/"+tc.name, got, want)
		}
		flat, err := e.Exhaustive(tc.req, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Search(tc.req, Options{Algorithm: ToE, DisablePrime: true})
		if err != nil {
			t.Fatalf("ToE\\P/%s: %v", tc.name, err)
		}
		sameResults(t, "ToE\\P/"+tc.name, got, flat)
	}
}

// TestClosedDoorsNeverOnRoutes asserts the hard guarantee behind closures.
func TestClosedDoorsNeverOnRoutes(t *testing.T) {
	e := testMall(t)
	r := withCond(req([]string{"coffee", "laptop"}, 6, 160),
		model.NewConditions().Close(4).Close(5))
	for _, alg := range []Algorithm{ToE, KoE} {
		res, err := e.Search(r, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Routes) == 0 {
			t.Fatalf("%v: no routes at all", alg)
		}
		for _, rt := range res.Routes {
			for _, d := range rt.Doors {
				if d == 4 || d == 5 {
					t.Fatalf("%v: closed door %d on route %v", alg, d, rt.Doors)
				}
			}
		}
	}
}

// TestDelaysReflectedExactly checks that a returned route's δ equals the
// unconditioned δ of the same door sequence plus the penalty of every door
// passed — the "penalties must be reflected exactly in reported δ"
// acceptance criterion.
func TestDelaysReflectedExactly(t *testing.T) {
	e := testMall(t)
	base := req([]string{"coffee", "coat"}, 6, 160)
	cond := model.NewConditions().Delay(0, 25).Delay(1, 7.5).Delay(4, 12)

	plain, err := e.Search(base, Options{Algorithm: ToE})
	if err != nil {
		t.Fatal(err)
	}
	over, err := e.Search(withCond(base, cond), Options{Algorithm: ToE})
	if err != nil {
		t.Fatal(err)
	}
	plainByDoors := make(map[string]float64)
	for _, rt := range plain.Routes {
		plainByDoors[doorSeqKey(rt.Doors)] = rt.Dist
	}
	matched := 0
	for _, rt := range over.Routes {
		pd, ok := plainByDoors[doorSeqKey(rt.Doors)]
		if !ok {
			continue // overlaid ranking surfaced a different route; fine
		}
		matched++
		wantExtra := 0.0
		for _, d := range rt.Doors {
			wantExtra += cond.Penalty(d)
		}
		if math.Abs(rt.Dist-(pd+wantExtra)) > 1e-9 {
			t.Errorf("route %v: δ=%v, want %v + %v penalties", rt.Doors, rt.Dist, pd, wantExtra)
		}
	}
	if matched == 0 {
		t.Fatal("no overlaid route shares a door sequence with the plain run; test is vacuous")
	}
}

func doorSeqKey(ds []model.DoorID) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteByte(byte(d))
		b.WriteByte(byte(d >> 8))
	}
	return b.String()
}

// TestValidateTable covers the request-validation error paths, including
// the Conditions overlay's.
func TestValidateTable(t *testing.T) {
	e := testMall(t)
	base := req([]string{"coffee"}, 3, 80)
	mut := func(f func(*Request)) Request {
		r := base
		f(&r)
		return r
	}
	cases := []struct {
		name string
		req  Request
		ok   bool
		frag string // substring the error must carry
	}{
		{"valid", base, true, ""},
		{"valid with overlay", mut(func(r *Request) {
			r.Conditions = model.NewConditions().Close(0).Delay(1, 5)
		}), true, ""},
		{"k zero", mut(func(r *Request) { r.K = 0 }), false, "k must be"},
		{"delta zero", mut(func(r *Request) { r.Delta = 0 }), false, "Δ must be positive"},
		{"alpha high", mut(func(r *Request) { r.Alpha = 1.1 }), false, "α must be"},
		{"alpha negative", mut(func(r *Request) { r.Alpha = -0.1 }), false, "α must be"},
		{"tau high", mut(func(r *Request) { r.Tau = 2 }), false, "τ must be"},
		{"ps outdoors", mut(func(r *Request) { r.Ps = geom.Pt(-50, -50, 0) }), false, "start point"},
		{"pt outdoors", mut(func(r *Request) { r.Pt = geom.Pt(500, 500, 0) }), false, "terminal point"},
		{"close out of range", mut(func(r *Request) {
			r.Conditions = model.NewConditions().Close(999)
		}), false, "close door 999"},
		{"delay out of range", mut(func(r *Request) {
			r.Conditions = model.NewConditions().Delay(999, 1)
		}), false, "delay door 999"},
		{"delay negative", mut(func(r *Request) {
			r.Conditions = model.NewConditions().Delay(0, -3)
		}), false, "finite and ≥ 0"},
		{"delay NaN", mut(func(r *Request) {
			r.Conditions = model.NewConditions().Delay(0, math.NaN())
		}), false, "finite and ≥ 0"},
		{"delay Inf", mut(func(r *Request) {
			r.Conditions = model.NewConditions().Delay(0, math.Inf(1))
		}), false, "finite and ≥ 0"},
	}
	for _, tc := range cases {
		err := e.Validate(tc.req)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.frag != "" && !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// TestValidateOptionsTable covers the option-combination error paths.
func TestValidateOptionsTable(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		ok   bool
	}{
		{"default", Options{}, true},
		{"koe star", Options{Algorithm: KoE, Precompute: true}, true},
		{"toe no-prime", Options{Algorithm: ToE, DisablePrime: true}, true},
		{"extensions", Options{SoftDeltaSlack: 0.2, PopularityWeight: 0.1}, true},
		{"koe no-prime", Options{Algorithm: KoE, DisablePrime: true}, false},
		{"toe precompute", Options{Algorithm: ToE, Precompute: true}, false},
		{"negative slack", Options{SoftDeltaSlack: -0.1}, false},
		{"negative popularity", Options{PopularityWeight: -1}, false},
	}
	for _, tc := range cases {
		err := validateOptions(tc.opt)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validateOptions = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestOverlayPooledMatchesFresh pins the pooled-scratch overlay plumbing:
// a query on scratch that a different overlay just used must equal the same
// query on a brand-new engine.
func TestOverlayPooledMatchesFresh(t *testing.T) {
	e := testMall(t)
	r := withCond(req([]string{"coffee", "coat"}, 4, 150),
		model.NewConditions().Close(5).Delay(0, 15))
	other := withCond(req([]string{"laptop", "coat"}, 3, 150),
		model.NewConditions().Close(2).Delay(7, 40).Delay(3, 5))
	for _, v := range Variants() {
		opt, err := OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		// Churn the pooled scratch with the other overlay's door sets.
		if _, err := e.Search(other, opt); err != nil {
			t.Fatal(err)
		}
		pooled, err := e.Search(r, opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := brandNewEngine(t, e).Search(r, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameRouteAndWork(t, string(v)+"/pooled-vs-fresh", pooled, fresh)
	}
}
