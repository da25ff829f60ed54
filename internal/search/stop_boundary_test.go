package search

import (
	"fmt"
	"testing"

	"ikrq/internal/geom"
)

// koeStopOptions are the searches that read KoE paths under the kernel's
// distance stop: plain KoE, whose stop carries no backend remainder, and
// KoE* with the backend bound on and off.
var koeStopOptions = []struct {
	name string
	opt  Options
}{
	{"KoE", Options{Algorithm: KoE}},
	{"KoE*", Options{Algorithm: KoE, Precompute: true}},
	{"KoE*-nobound", Options{Algorithm: KoE, Precompute: true, DisableBackendBound: true}},
}

// TestDistanceStopAtCap re-runs each route query with Δ set to each of its
// routes' exact distance, so that route's targets sit exactly at the cap
// where KoE's distance stop and KoE*'s post-static check decide, and
// requires every KoE search to agree with the exhaustive baseline there:
// the one-floor mall bare and under every overlay case, and the two-floor
// mall, whose routes cross the staircase.
func TestDistanceStopAtCap(t *testing.T) {
	var oneFloor []Request
	for _, tc := range oracleCases {
		// Capped, large-k's top 9 takes in classes that visit both coat
		// shops. Revisiting a covered keyword through a second shop is
		// outside KoE's search space on any engine (see overlayCases), so
		// the baseline is no reference for it there.
		if tc.name != "large-k" {
			oneFloor = append(oneFloor, tc.req)
		}
	}
	for _, tc := range overlayCases {
		oneFloor = append(oneFloor, tc.req)
	}
	twoFloor := []Request{
		{Ps: geom.Pt(2, 5, 0), Pt: geom.Pt(2, 5, 1), Delta: 180, QW: []string{"toys", "makeup"}, K: 4, Alpha: 0.7, Tau: 0.2},
		{Ps: geom.Pt(15, 5, 1), Pt: geom.Pt(15, 5, 0), Delta: 120, QW: []string{"bricks"}, K: 2, Alpha: 0.3, Tau: 0.2},
		{Ps: geom.Pt(2, 5, 0), Pt: geom.Pt(2, 5, 1), Delta: 200, QW: []string{"perfume"}, K: 3, Alpha: 0.5, Tau: 0.2},
	}
	capped := 0
	for _, m := range []struct {
		name string
		e    *Engine
		reqs []Request
	}{
		{"one-floor", testMall(t), oneFloor},
		{"two-floor", twoFloorMall(t), twoFloor},
	} {
		for i, base := range m.reqs {
			first, err := m.e.Exhaustive(base, true)
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range first.Routes {
				req := base
				req.Delta = r.Dist
				want, err := m.e.Exhaustive(req, true)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range koeStopOptions {
					got, err := m.e.Search(req, o.opt)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, fmt.Sprintf("%s req %d Δ=route %d %s", m.name, i, j, o.name), got, want)
				}
				capped++
			}
		}
	}
	if capped == 0 {
		t.Fatal("no route to cap Δ at")
	}
}
