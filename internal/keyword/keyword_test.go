package keyword

import (
	"math"
	"testing"
	"testing/quick"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// paperVocabulary builds the Example 4 setting:
//
//	v3  costa     {coffee, drinks, macha}
//	v10 apple     {phone, mac, laptop, watch}
//	v7  starbucks {coffee, macha, latte, drinks}
//	v12 samsung   {phone, laptop, earphone}
//
// Partition IDs here are 0..3 in the order above.
func paperVocabulary(t *testing.T) (*Index, []IWordID) {
	t.Helper()
	b := NewIndexBuilder(4)
	costa := b.DefineIWord("costa", []string{"coffee", "drinks", "macha"})
	apple := b.DefineIWord("apple", []string{"phone", "mac", "laptop", "watch"})
	starbucks := b.DefineIWord("starbucks", []string{"coffee", "macha", "latte", "drinks"})
	samsung := b.DefineIWord("samsung", []string{"phone", "laptop", "earphone"})
	b.AssignPartition(0, costa)
	b.AssignPartition(1, apple)
	b.AssignPartition(2, starbucks)
	b.AssignPartition(3, samsung)
	x, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return x, []IWordID{costa, apple, starbucks, samsung}
}

func TestCandidateSetExample4(t *testing.T) {
	x, ids := paperVocabulary(t)
	costa, apple, starbucks, samsung := ids[0], ids[1], ids[2], ids[3]

	// Query keyword "latte" is a t-word: starbucks is a direct match
	// (sim 1); costa is an indirect match with Jaccard 3/4; apple and
	// samsung share no t-word with U and score 0.
	cs := x.CandidateIWords("latte", 0.5)
	if got := cs.Sim(starbucks); got != 1 {
		t.Errorf("s(starbucks) = %v, want 1", got)
	}
	if got := cs.Sim(costa); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("s(costa) = %v, want 0.75", got)
	}
	if cs.Contains(apple) || cs.Contains(samsung) {
		t.Errorf("apple/samsung wrongly in κ(latte): %+v", cs.Entries)
	}
	if len(cs.Entries) != 2 {
		t.Errorf("κ(latte) has %d entries, want 2", len(cs.Entries))
	}
	// Entries sorted by descending similarity.
	if cs.Entries[0].Word != starbucks || cs.Entries[1].Word != costa {
		t.Errorf("κ(latte) order = %+v", cs.Entries)
	}

	// Query keyword "apple" is an i-word: κ = {(apple, 1)}.
	cs = x.CandidateIWords("apple", 0.5)
	if len(cs.Entries) != 1 || cs.Entries[0].Word != apple || cs.Entries[0].Sim != 1 {
		t.Errorf("κ(apple) = %+v, want [(apple,1)]", cs.Entries)
	}
}

func TestCandidateSetThreshold(t *testing.T) {
	x, ids := paperVocabulary(t)
	costa := ids[0]
	// With τ = 0.8 the indirect match costa (0.75) is dropped.
	cs := x.CandidateIWords("latte", 0.8)
	if cs.Contains(costa) {
		t.Errorf("costa kept in κ(latte) despite τ=0.8")
	}
	if len(cs.Entries) != 1 {
		t.Errorf("κ(latte) = %+v, want only starbucks", cs.Entries)
	}
}

func TestCandidateSetUnknownWord(t *testing.T) {
	x, _ := paperVocabulary(t)
	cs := x.CandidateIWords("nosuchword", 0.1)
	if len(cs.Entries) != 0 {
		t.Errorf("κ(unknown) = %+v, want empty", cs.Entries)
	}
}

func TestIndirectMatchViaSharedTWords(t *testing.T) {
	x, ids := paperVocabulary(t)
	apple, samsung := ids[1], ids[3]
	// "mac" is a t-word of apple only; U = I2T(apple). samsung shares
	// {phone, laptop} with U: |∩|=2, |∪| = |{phone,mac,laptop,watch}| +
	// |{phone,laptop,earphone}| - 2 = 5 → 0.4.
	cs := x.CandidateIWords("mac", 0.3)
	if got := cs.Sim(apple); got != 1 {
		t.Errorf("s(apple) = %v, want 1", got)
	}
	if got := cs.Sim(samsung); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("s(samsung) = %v, want 0.4", got)
	}
}

func TestIWordTWordDisjointness(t *testing.T) {
	b := NewIndexBuilder(2)
	// "zara" appears both as an i-word and in another brand's t-words; the
	// t-word occurrence must be dropped to keep Wi and Wt disjoint.
	zara := b.DefineIWord("zara", []string{"coat"})
	rival := b.DefineIWord("rival", []string{"zara", "coat"})
	b.AssignPartition(0, zara)
	b.AssignPartition(1, rival)
	x, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, ok := x.LookupTWord("zara"); ok {
		t.Error("\"zara\" registered as a t-word despite being an i-word")
	}
	if got := len(x.I2T(rival)); got != 1 {
		t.Errorf("I2T(rival) has %d entries, want 1 (only \"coat\")", got)
	}
	// Self-referential t-word is ignored too.
	if got := x.I2T(zara); len(got) != 1 || x.TWord(got[0]) != "coat" {
		t.Errorf("I2T(zara) = %v", got)
	}
}

func TestDefineIWordMergesTWords(t *testing.T) {
	b := NewIndexBuilder(1)
	a1 := b.DefineIWord("cashier", []string{"payment"})
	a2 := b.DefineIWord("cashier", []string{"refund"})
	if a1 != a2 {
		t.Fatalf("same spelling produced two IDs: %d %d", a1, a2)
	}
	b.AssignPartition(0, a1)
	x, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := len(x.I2T(a1)); got != 2 {
		t.Errorf("merged t-word set has %d entries, want 2", got)
	}
}

func TestP2IIsManyToOne(t *testing.T) {
	b := NewIndexBuilder(3)
	cashier := b.DefineIWord("cashier", nil)
	b.AssignPartition(0, cashier)
	b.AssignPartition(2, cashier)
	x, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := x.I2P(cashier); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("I2P(cashier) = %v, want [0 2]", got)
	}
	if x.P2I(1) != NoIWord {
		t.Errorf("unassigned partition has i-word %v", x.P2I(1))
	}
	// Assigning a partition twice is rejected.
	b2 := NewIndexBuilder(1)
	w := b2.DefineIWord("a", nil)
	b2.AssignPartition(0, w)
	b2.AssignPartition(0, w)
	if _, err := b2.Build(); err == nil {
		t.Error("double assignment accepted, want error")
	}
}

func TestCompileQueryKeyPartitions(t *testing.T) {
	x, _ := paperVocabulary(t)
	q := x.CompileQuery([]string{"latte", "apple"}, 0.5)
	// κ(latte).Wi = {starbucks, costa} → partitions {2, 0};
	// κ(apple).Wi = {apple} → partition {1}.
	want := []model.PartitionID{0, 1, 2}
	got := q.KeyPartitions()
	if len(got) != len(want) {
		t.Fatalf("key partitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key partitions = %v, want %v", got, want)
		}
	}
	if q.IsKeyPartition(3) {
		t.Error("samsung partition wrongly key")
	}
	if !q.IsCandidate(0) { // costa
		t.Error("costa not a candidate i-word")
	}
}

func TestRelevanceExample6(t *testing.T) {
	x, _ := paperVocabulary(t)
	q := x.CompileQuery([]string{"latte", "apple"}, 0.5)

	// Route R1 covers {zara, oppo, costa}-like words; here only costa
	// matters: latte matched at 0.75, apple uncovered → ρ = 1 + 0.75/1.
	sims := make([]float64, 2)
	costa, _ := x.LookupIWord("costa")
	q.Absorb(sims, costa)
	if got := Relevance(sims); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("ρ(R1) = %v, want 1.75", got)
	}

	// Route R2 covers {apple, starbucks, costa}: latte takes max(1, 0.75)
	// = 1 via starbucks, apple matched at 1 → ρ = 2 + (1+1)/2 = 3.
	sims = make([]float64, 2)
	for _, w := range []string{"apple", "starbucks", "costa"} {
		id, _ := x.LookupIWord(w)
		q.Absorb(sims, id)
	}
	if got := Relevance(sims); math.Abs(got-3) > 1e-12 {
		t.Errorf("ρ(R2) = %v, want 3", got)
	}
}

func TestRelevanceZeroWhenUncovered(t *testing.T) {
	if got := Relevance([]float64{0, 0, 0}); got != 0 {
		t.Errorf("ρ = %v, want 0", got)
	}
}

func TestRelevanceRangeProperty(t *testing.T) {
	// ρ ∈ {0} ∪ (1, |QW|+1] for any similarity vector with entries in [0,1].
	prop := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		sims := make([]float64, len(raw))
		for i, v := range raw {
			sims[i] = math.Mod(math.Abs(v), 1.0001)
			if sims[i] > 1 {
				sims[i] = 1
			}
		}
		rho := Relevance(sims)
		if rho == 0 {
			return CoveredCount(sims) == 0
		}
		return rho > 1 && rho <= float64(len(sims))+1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAbsorbMonotoneProperty(t *testing.T) {
	x, _ := paperVocabulary(t)
	q := x.CompileQuery([]string{"latte", "apple", "phone"}, 0.05)
	// Absorbing words never lowers ρ.
	prop := func(order []uint8) bool {
		sims := make([]float64, q.Len())
		prev := 0.0
		for _, b := range order {
			w := IWordID(int(b) % x.NumIWords())
			q.Absorb(sims, w)
			rho := Relevance(sims)
			if rho+1e-12 < prev {
				return false
			}
			prev = rho
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWouldImproveAgreesWithAbsorb(t *testing.T) {
	x, _ := paperVocabulary(t)
	q := x.CompileQuery([]string{"latte", "apple"}, 0.1)
	for w := 0; w < x.NumIWords(); w++ {
		sims := make([]float64, q.Len())
		would := q.WouldImprove(sims, IWordID(w))
		changed := q.Absorb(sims, IWordID(w))
		if would != changed {
			t.Errorf("WouldImprove(%d)=%v but Absorb changed=%v", w, would, changed)
		}
	}
}

func TestCoverageHelpers(t *testing.T) {
	sims := []float64{0.5, 0, 1}
	if CoveredCount(sims) != 2 {
		t.Errorf("CoveredCount = %d", CoveredCount(sims))
	}
	if FullyCovered(sims) {
		t.Error("FullyCovered wrongly true")
	}
	if PerfectlyCovered(sims) {
		t.Error("PerfectlyCovered wrongly true")
	}
	if !FullyCovered([]float64{0.2, 0.9}) {
		t.Error("FullyCovered wrongly false")
	}
	if !PerfectlyCovered([]float64{1, 1}) {
		t.Error("PerfectlyCovered wrongly false")
	}
	if PerfectlyCovered(nil) {
		t.Error("PerfectlyCovered of empty query should be false")
	}
	if !KeywordCovered(sims, 0) || KeywordCovered(sims, 1) {
		t.Error("KeywordCovered wrong")
	}
}

// fig1MiniSpace builds ps's partition v1 with door d3 between v1 and v5, as
// in Example 5 of the paper: RW((ps,d3,pt)) = {zara}.
func fig1MiniSpace(t *testing.T) (*model.Space, *Index) {
	t.Helper()
	b := model.NewBuilder()
	v1 := b.AddPartition("v1", model.KindRoom, geom.R(0, 0, 10, 10, 0))
	v5 := b.AddPartition("v5", model.KindHallway, geom.R(10, 0, 30, 10, 0))
	b.AddDoor(geom.Pt(10, 5, 0), v1, v5)
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	kb := NewIndexBuilder(s.NumPartitions())
	zara := kb.DefineIWord("zara", []string{"coat", "pants"})
	kb.AssignPartition(v1, zara)
	x, err := kb.Build()
	if err != nil {
		t.Fatalf("keyword Build: %v", err)
	}
	return s, x
}

func TestRouteIWordsExample5(t *testing.T) {
	s, x := fig1MiniSpace(t)
	// Route (ps, d3, pt): ps hosted in v1 (zara), d3 leaveable from both v1
	// and v5 (v5 anonymous), pt hosted in v5.
	rw := RouteIWords(x, s, []model.DoorID{0}, 0, 1)
	if len(rw) != 1 {
		t.Fatalf("RW = %v, want exactly {zara}", rw)
	}
	zara, _ := x.LookupIWord("zara")
	if _, ok := rw[zara]; !ok {
		t.Fatalf("RW missing zara")
	}
}

func TestRelevanceOfRoute(t *testing.T) {
	s, x := fig1MiniSpace(t)
	q := x.CompileQuery([]string{"coat"}, 0.1)
	got := RelevanceOfRoute(x, s, q, []model.DoorID{0}, 0)
	if math.Abs(got-2) > 1e-12 { // 1 keyword covered at sim 1 → 1 + 1/1
		t.Errorf("ρ = %v, want 2", got)
	}
	// A route touching nothing relevant scores 0.
	q2 := x.CompileQuery([]string{"noword"}, 0.1)
	if got := RelevanceOfRoute(x, s, q2, []model.DoorID{0}, 0); got != 0 {
		t.Errorf("ρ = %v, want 0", got)
	}
}

func TestSimilarityHistogram(t *testing.T) {
	x, _ := paperVocabulary(t)
	q := x.CompileQuery([]string{"latte"}, 0.05)
	h := q.SimilarityHistogram(4)
	// starbucks at 1.0 lands in the last bucket; costa at 0.75 in bucket 3.
	if h[3] != 2 {
		t.Errorf("histogram = %v, want 2 entries in top bucket", h)
	}
}

func TestMaxRelevance(t *testing.T) {
	x, _ := paperVocabulary(t)
	q := x.CompileQuery([]string{"a", "b", "c"}, 0.1)
	if got := q.MaxRelevance(); got != 4 {
		t.Errorf("MaxRelevance = %v, want 4", got)
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
}

// RouteIWords computes RW for an item sequence (Definition 5): the union of
// i-words of the partitions relevant to each item, where a door contributes
// the partitions one can LEAVE through it and a point contributes its host
// partition. It is a non-incremental reference: the search maintains
// coverage incrementally via Absorb.
func RouteIWords(x *Index, s *model.Space, doors []model.DoorID, pts ...model.PartitionID) map[IWordID]struct{} {
	rw := make(map[IWordID]struct{})
	add := func(v model.PartitionID) {
		if v == model.NoPartition {
			return
		}
		if w := x.P2I(v); w != NoIWord {
			rw[w] = struct{}{}
		}
	}
	for _, d := range doors {
		for _, v := range s.Door(d).Leaveable() {
			add(v)
		}
	}
	for _, v := range pts {
		add(v)
	}
	return rw
}

// RelevanceOfRoute scores an explicit route (door sequence plus the hosts of
// its endpoints) against a compiled query; the reference implementation for
// tests.
func RelevanceOfRoute(x *Index, s *model.Space, q *Query, doors []model.DoorID, hosts ...model.PartitionID) float64 {
	sims := make([]float64, q.Len())
	for w := range RouteIWords(x, s, doors, hosts...) {
		q.Absorb(sims, w)
	}
	return Relevance(sims)
}

// SimilarityHistogram summarizes the candidate-set similarity distribution
// of a query, the "long-tailed Jaccard" observation that makes the search
// insensitive to τ.
func (q *Query) SimilarityHistogram(buckets int) []int {
	h := make([]int, buckets)
	for _, cs := range q.Sets {
		for _, e := range cs.Entries {
			b := int(e.Sim * float64(buckets))
			if b >= buckets {
				b = buckets - 1
			}
			if b < 0 || math.IsNaN(e.Sim) {
				continue
			}
			h[b]++
		}
	}
	return h
}
