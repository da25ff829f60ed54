package search

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"ikrq/internal/geom"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/route"
)

func TestSearchIsDeterministic(t *testing.T) {
	e := testMall(t)
	for _, tc := range oracleCases {
		for _, alg := range []Algorithm{ToE, KoE} {
			a, err := e.Search(tc.req, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.Search(tc.req, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Routes) != len(b.Routes) {
				t.Fatalf("%s/%v: route count differs between runs", tc.name, alg)
			}
			for i := range a.Routes {
				if !reflect.DeepEqual(a.Routes[i].Doors, b.Routes[i].Doors) {
					t.Fatalf("%s/%v: rank %d doors differ: %v vs %v",
						tc.name, alg, i, a.Routes[i].Doors, b.Routes[i].Doors)
				}
			}
		}
	}
}

func TestTopKDiversified(t *testing.T) {
	tk := newTopK(2, true)
	kpA := route.NewKP(1).Append(2)
	kpB := route.NewKP(1).Append(3)
	mk := func(kp *route.KPNode, dist, psi float64) *complete {
		n := route.NewStart(1).Append(5, 2, dist)
		return &complete{node: n, kp: kp, dist: dist, psi: psi}
	}
	tk.add(mk(kpA, 10, 0.9))
	if tk.kbound() != 0 {
		t.Errorf("kbound = %v with 1 of 2 results, want 0", tk.kbound())
	}
	tk.add(mk(kpB, 20, 0.5))
	if math.Abs(tk.kbound()-0.5) > 1e-12 {
		t.Errorf("kbound = %v, want 0.5", tk.kbound())
	}
	// A shorter route in class A replaces the stored one.
	tk.add(mk(kpA, 8, 0.95))
	rs := tk.results()
	if len(rs) != 2 || rs[0].psi != 0.95 {
		t.Fatalf("results = %+v", rs)
	}
	// A longer route in class A is ignored (non-prime).
	tk.add(mk(kpA, 50, 0.2))
	rs = tk.results()
	if len(rs) != 2 || rs[0].psi != 0.95 || rs[1].psi != 0.5 {
		t.Fatalf("results after dominated add = %+v", rs)
	}
}

func TestTopKFlatDedupes(t *testing.T) {
	tk := newTopK(5, false)
	n := route.NewStart(1).Append(7, 2, 10)
	kp := route.NewKP(1)
	tk.add(&complete{node: n, kp: kp, dist: 10, psi: 0.7})
	tk.add(&complete{node: n, kp: kp, dist: 10, psi: 0.7}) // same doors
	if got := len(tk.results()); got != 1 {
		t.Errorf("flat results = %d, want 1 (deduped)", got)
	}
	other := route.NewStart(1).Append(8, 2, 12)
	tk.add(&complete{node: other, kp: kp, dist: 12, psi: 0.6})
	if got := len(tk.results()); got != 2 {
		t.Errorf("flat results = %d, want 2", got)
	}
}

func TestScoreEquation1(t *testing.T) {
	// Example 8: ρ=1.75, |QW|=2, α=0.2, Δ=25, δ=20 → ψ = 0.2·1.75/3 +
	// 0.8·(5/25) = 0.27667.
	got := score(0.2, 1.75, 3, 20, 25)
	if math.Abs(got-(0.2*1.75/3+0.8*0.2)) > 1e-12 {
		t.Errorf("score = %v", got)
	}
	// Pruning Rule 4's bound from the same example: δLB = 23.5 → 0.2·1 +
	// 0.8·(1 − 23.5/25) = 0.248.
	if ub := psiUpperBound(0.2, 23.5, 25); math.Abs(ub-0.248) > 1e-12 {
		t.Errorf("ψUB = %v, want 0.248", ub)
	}
}

func TestPsiUpperBoundDominatesScore(t *testing.T) {
	// The Rule 4 bound must dominate the true score for every feasible
	// (ρ, δ) with δ ≥ δLB.
	prop := func(alpha, rho, dist, lb, delta float64) bool {
		alpha = math.Mod(math.Abs(alpha), 1)
		delta = 100 + math.Mod(math.Abs(delta), 1000)
		lb = math.Mod(math.Abs(lb), delta)
		dist = lb + math.Mod(math.Abs(dist), delta-lb+1)
		maxRho := 5.0
		rho = math.Mod(math.Abs(rho), maxRho)
		return score(alpha, rho, maxRho, dist, delta) <= psiUpperBound(alpha, lb, delta)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestStatsCountersPerVariant(t *testing.T) {
	e := testMall(t)
	r := req([]string{"coffee", "laptop"}, 2, 90)

	full, err := e.Search(r, Options{Algorithm: ToE})
	if err != nil {
		t.Fatal(err)
	}
	// Prime pruning fires only when homogeneous partial routes compete,
	// which needs a cycle in the topology; the corridor mall has none, so
	// use a ring space for that assertion.
	ringE := ringSpace(t)
	ringRes, err := ringE.Search(Request{
		Ps: geomPt(2, 5), Pt: geomPt(28, 25),
		Delta: 200, QW: []string{"rings"}, K: 2, Alpha: 0.5, Tau: 0.2,
	}, Options{Algorithm: ToE})
	if err != nil {
		t.Fatal(err)
	}
	if ringRes.Stats.PrunedRule5 == 0 {
		t.Error("prime pruning never fired on the ring space")
	}

	noDist, err := e.Search(r, Options{Algorithm: ToE, DisableDistancePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if noDist.Stats.PrunedRule1 != 0 || noDist.Stats.PrunedRule2 != 0 || noDist.Stats.PrunedRule3 != 0 {
		t.Errorf("\\D variant used distance rules: %+v", noDist.Stats)
	}

	noB, err := e.Search(r, Options{Algorithm: ToE, DisableKBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if noB.Stats.PrunedRule4 != 0 {
		t.Errorf("\\B variant used Rule 4: %+v", noB.Stats)
	}

	noP, err := e.Search(r, Options{Algorithm: ToE, DisablePrime: true})
	if err != nil {
		t.Fatal(err)
	}
	if noP.Stats.PrunedRule5 != 0 {
		t.Errorf("\\P variant used Rule 5: %+v", noP.Stats)
	}

	star, err := e.Search(r, Options{Algorithm: KoE, Precompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if star.Stats.EstBytes <= full.Stats.EstBytes {
		t.Errorf("KoE* memory estimate %d not above ToE %d (backend missing?)",
			star.Stats.EstBytes, full.Stats.EstBytes)
	}
}

func TestSoftPlusPopularityCombined(t *testing.T) {
	e := testMall(t)
	e.SetPopularity(mapPop(e, t))
	opt := Options{Algorithm: KoE, SoftDeltaSlack: 0.4, PopularityWeight: 0.2}
	r := req([]string{"coffee", "coat"}, 4, 70)
	want, err := e.ExhaustiveWith(r, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Search(r, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "combined", got, want)
}

// ringSpace is a square ring of hallways (two parallel paths between any
// two cells) with one branded shop, so homogeneous partial routes compete
// and Pruning Rule 5 has work to do.
func ringSpace(t *testing.T) *Engine {
	t.Helper()
	b := model.NewBuilder()
	h0 := b.AddPartition("h0", model.KindHallway, geomR(0, 0, 15, 10))
	h1 := b.AddPartition("h1", model.KindHallway, geomR(15, 0, 30, 10))
	h2 := b.AddPartition("h2", model.KindHallway, geomR(15, 10, 30, 30))
	h3 := b.AddPartition("h3", model.KindHallway, geomR(0, 10, 15, 30))
	shop := b.AddPartition("goldsmith", model.KindRoom, geomR(30, 10, 40, 20))
	b.AddDoor(geomPtP(15, 5), h0, h1)
	b.AddDoor(geomPtP(22, 10), h1, h2)
	b.AddDoor(geomPtP(15, 20), h2, h3)
	b.AddDoor(geomPtP(7, 10), h3, h0)
	b.AddDoor(geomPtP(30, 15), h2, shop)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	kb := newKB(t, s, shop)
	return NewEngine(s, kb)
}

func mapPop(e *Engine, t *testing.T) map[model.PartitionID]float64 {
	t.Helper()
	out := make(map[model.PartitionID]float64)
	for _, p := range e.Space().Partitions() {
		out[p.ID] = float64(p.ID%5) / 5
	}
	return out
}

// Small geometry helpers keeping the ring-space construction terse.
func geomPt(x, y float64) geom.Point         { return geom.Pt(x, y, 0) }
func geomPtP(x, y float64) geom.Point        { return geom.Pt(x, y, 0) }
func geomR(x0, y0, x1, y1 float64) geom.Rect { return geom.R(x0, y0, x1, y1, 0) }

func newKB(t *testing.T, s *model.Space, shop model.PartitionID) *keyword.Index {
	t.Helper()
	kb := keyword.NewIndexBuilder(s.NumPartitions())
	kb.AssignPartition(shop, kb.DefineIWord("goldsmith", []string{"rings", "necklaces"}))
	x, err := kb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return x
}
