package gen

import (
	"math"
	"reflect"
	"testing"

	"ikrq/internal/graph"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
)

func TestSyntheticFloorCounts(t *testing.T) {
	// The paper: 141 partitions and 220 doors per floor; default 5-floor
	// space has 705 partitions and 1100 doors.
	for _, floors := range []int{1, 5} {
		m, err := BuildGrid(SyntheticConfig(floors))
		if err != nil {
			t.Fatalf("BuildGrid(%d floors): %v", floors, err)
		}
		if got, want := m.Space.NumPartitions(), 141*floors; got != want {
			t.Errorf("%d floors: %d partitions, want %d", floors, got, want)
		}
		if got, want := m.Space.NumDoors(), 220*floors; got != want {
			t.Errorf("%d floors: %d doors, want %d", floors, got, want)
		}
		if got, want := len(m.Rooms), 96*floors; got != want {
			t.Errorf("%d floors: %d rooms, want %d", floors, got, want)
		}
		if got, want := len(m.HallCells), 41*floors; got != want {
			t.Errorf("%d floors: %d hall cells, want %d", floors, got, want)
		}
		if err := m.Space.Validate(); err != nil {
			t.Errorf("%d floors: Validate: %v", floors, err)
		}
	}
}

func TestSyntheticStairways(t *testing.T) {
	m, err := BuildGrid(SyntheticConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// 4 staircases × 2 floor gaps.
	if got := len(m.Space.Stairways()); got != 8 {
		t.Errorf("stairways = %d, want 8", got)
	}
	for _, sw := range m.Space.Stairways() {
		if sw.Length != 20 {
			t.Errorf("stairway length = %v, want 20", sw.Length)
		}
	}
	// Floors must be mutually reachable.
	pf := graph.NewPathFinder(m.Space)
	a := m.Space.Partition(m.Rooms[0]).Bounds.Center()
	b := m.Space.Partition(m.Rooms[len(m.Rooms)-1]).Bounds.Center()
	if d := pf.PointToPoint(a, b); math.IsInf(d, 1) {
		t.Error("rooms on different floors unreachable")
	}
}

func TestGridRejectsBadConfig(t *testing.T) {
	cfg := SyntheticConfig(1)
	cfg.RoomRows = 7
	if _, err := BuildGrid(cfg); err == nil {
		t.Error("odd RoomRows accepted")
	}
	cfg = SyntheticConfig(1)
	cfg.Staircases = 99
	if _, err := BuildGrid(cfg); err == nil {
		t.Error("absurd staircase count accepted")
	}
}

func TestPartitionsDoNotOverlap(t *testing.T) {
	m, err := BuildGrid(SyntheticConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parts := m.Space.Partitions()
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			a, b := parts[i].Bounds, parts[j].Bounds
			if a.Floor != b.Floor {
				continue
			}
			// Strict interior overlap (shared walls are fine).
			if a.MinX < b.MaxX-1e-9 && b.MinX < a.MaxX-1e-9 &&
				a.MinY < b.MaxY-1e-9 && b.MinY < a.MaxY-1e-9 {
				t.Fatalf("partitions %s and %s overlap: %+v vs %+v",
					parts[i].Name, parts[j].Name, a, b)
			}
		}
	}
}

func TestVocabularyStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("vocabulary generation is corpus-sized")
	}
	v := GenerateVocabulary(DefaultVocabConfig(42))
	if len(v.Brands) != 1225 {
		t.Errorf("brands = %d, want 1225", len(v.Brands))
	}
	withTW := 0
	maxTW := 0
	for _, b := range v.Brands {
		if len(b.TWords) > 0 {
			withTW++
		}
		if len(b.TWords) > maxTW {
			maxTW = len(b.TWords)
		}
	}
	if withTW != 1120 {
		t.Errorf("brands with t-words = %d, want 1120", withTW)
	}
	if maxTW > 60 {
		t.Errorf("max t-words = %d, exceeds the 60 cap", maxTW)
	}
	// The paper reports 16.6 t-words per i-word on average and 9195
	// distinct t-words; the synthetic corpus should land in the same
	// regime (order of magnitude and direction matter, not the decimals).
	if avg := v.AvgTWords(); avg < 8 || avg > 40 {
		t.Errorf("avg t-words = %.1f, want within [8, 40]", avg)
	}
	if v.DistinctTWords < 4000 || v.DistinctTWords > 20000 {
		t.Errorf("distinct t-words = %d, want thousands", v.DistinctTWords)
	}
	t.Logf("vocabulary: %d brands, %d with t-words, avg %.1f, distinct %d, docs %d",
		len(v.Brands), withTW, v.AvgTWords(), v.DistinctTWords, v.Documents)
}

func TestVocabularyDeterminism(t *testing.T) {
	cfg := DefaultVocabConfig(7)
	cfg.Brands, cfg.BrandsWithDocs = 40, 35
	a := GenerateVocabulary(cfg)
	b := GenerateVocabulary(cfg)
	if len(a.Brands) != len(b.Brands) {
		t.Fatal("nondeterministic brand count")
	}
	for i := range a.Brands {
		if a.Brands[i].Name != b.Brands[i].Name ||
			len(a.Brands[i].TWords) != len(b.Brands[i].TWords) {
			t.Fatalf("brand %d differs between runs", i)
		}
	}
}

func TestBuildKeywordIndexAssignsAllRooms(t *testing.T) {
	m, err := BuildGrid(SyntheticConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultVocabConfig(3)
	cfg.Brands, cfg.BrandsWithDocs = 60, 50
	v := GenerateVocabulary(cfg)
	x, err := BuildKeywordIndex(m.Space, m.Rooms, v, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Rooms {
		if x.P2I(r) == keyword.NoIWord {
			t.Fatalf("room %d has no i-word", r)
		}
	}
	// Hallway cells stay anonymous.
	for _, h := range m.HallCells {
		if x.P2I(h) != keyword.NoIWord {
			t.Fatalf("hall cell %d has an i-word", h)
		}
	}
}

func TestRealMallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mall generation is corpus-sized")
	}
	m, v, x, err := RealMall(RealConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if m.Space.Floors() != 7 {
		t.Errorf("floors = %d, want 7", m.Space.Floors())
	}
	// 639 named stores, remaining rooms unnamed.
	named := 0
	for _, r := range m.Rooms {
		if x.P2I(r) != keyword.NoIWord {
			named++
		}
	}
	if named != 639 {
		t.Errorf("named stores = %d, want 639", named)
	}
	// Ten staircases per floor.
	if got := len(m.Space.StairDoorsOnFloor(0)); got != 10 {
		t.Errorf("staircases on floor 0 = %d, want 10", got)
	}
	// Category clustering: rooms on one floor should span few categories.
	perFloor := make(map[int]map[int]bool)
	for _, r := range m.Rooms {
		c := CategoryOfRoom(x, v, r)
		if c < 0 {
			continue
		}
		f := m.Space.Partition(r).Floor()
		if perFloor[f] == nil {
			perFloor[f] = make(map[int]bool)
		}
		perFloor[f][c] = true
	}
	for f, cats := range perFloor {
		if len(cats) > 8 {
			t.Errorf("floor %d spans %d categories, want clustered (≤8)", f, len(cats))
		}
	}
	// T-word statistics in the Hangzhou regime: ≤31 max, single-digit avg.
	if avg := v.AvgTWords(); avg < 4 || avg > 20 {
		t.Errorf("avg t-words = %.1f, want Hangzhou-like (4..20)", avg)
	}
	maxTW := 0
	for _, b := range v.Brands {
		if len(b.TWords) > maxTW {
			maxTW = len(b.TWords)
		}
	}
	if maxTW > 31 {
		t.Errorf("max t-words = %d, exceeds 31", maxTW)
	}
}

func TestQueryGeneratorFeasibility(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full synthetic space")
	}
	m, _, x, err := SyntheticMall(3, 99)
	if err != nil {
		t.Fatal(err)
	}
	e := search.NewEngine(m.Space, x)
	g := NewQueryGen(m, x, mustVocab(99), e.PathFinder(), 100)
	cfg := DefaultQueryConfig(99)
	cfg.Instances = 5
	cfg.S2T = 1200
	reqs, err := g.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if err := e.Validate(r); err != nil {
			t.Errorf("instance %d invalid: %v", i, err)
		}
		actual := e.PathFinder().PointToPoint(r.Ps, r.Pt)
		if r.Delta < actual {
			t.Errorf("instance %d: Δ=%.0f < indoor distance %.0f (infeasible)", i, r.Delta, actual)
		}
		if len(r.QW) != cfg.QWLen {
			t.Errorf("instance %d: |QW|=%d, want %d", i, len(r.QW), cfg.QWLen)
		}
	}
}

func mustVocab(seed uint64) *Vocabulary {
	return GenerateVocabulary(DefaultVocabConfig(seed))
}

func TestKeywordsBetaFractions(t *testing.T) {
	cfg := DefaultVocabConfig(5)
	cfg.Brands, cfg.BrandsWithDocs = 80, 70
	v := GenerateVocabulary(cfg)
	m, err := BuildGrid(SyntheticConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildKeywordIndex(m.Space, m.Rooms, v, 6)
	if err != nil {
		t.Fatal(err)
	}
	pf := graph.NewPathFinder(m.Space)
	g := NewQueryGen(m, x, v, pf, 7)

	iwords := make(map[string]bool)
	iw, _ := v.IWordPool()
	for _, w := range iw {
		iwords[w] = true
	}
	count := func(beta float64) float64 {
		n, hits := 3000, 0
		for i := 0; i < n/3; i++ {
			for _, w := range g.Keywords(3, beta) {
				if iwords[w] {
					hits++
				}
			}
		}
		return float64(hits) / float64(n)
	}
	if f := count(1.0); f < 0.99 {
		t.Errorf("β=1.0 yielded %.2f i-word fraction", f)
	}
	if f := count(0.2); f < 0.1 || f > 0.35 {
		t.Errorf("β=0.2 yielded %.2f i-word fraction", f)
	}
}

func TestSyllableWordStability(t *testing.T) {
	a, b := SyllableWord(123, 2), SyllableWord(123, 2)
	if a != b || a == "" {
		t.Errorf("SyllableWord unstable: %q vs %q", a, b)
	}
	if SyllableWord(1, 2) == SyllableWord(2, 2) {
		t.Error("adjacent indices collide")
	}
}

func TestCellIndexMapping(t *testing.T) {
	// vconn at [660, 708], cells of width 132, 5 per side.
	cases := []struct {
		x    float64
		want int
	}{
		{10, 0}, {131, 0}, {133, 1}, {659, 4}, {709, 5}, {840.5, 6}, {1367, 9},
	}
	for _, c := range cases {
		if got := cellIndex(c.x, 132, 708, 5); got != c.want {
			t.Errorf("cellIndex(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

var _ = model.NoPartition

// TestMegaConfigDefaultsToSynthetic: at the paper's 96 shops per floor the
// mega generator reproduces the synthetic shape exactly, so the scaling
// sweep's smallest point is the evaluation venue itself.
func TestMegaConfigDefaultsToSynthetic(t *testing.T) {
	if got, want := MegaConfig(3, 96), SyntheticConfig(3); got != want {
		t.Fatalf("MegaConfig(3, 96) = %+v, want synthetic %+v", got, want)
	}
}

// TestMegaMallScalesAndIsDeterministic checks the two contracts the
// scale benchmarks and CI smoke rely on: shop count tracks the knob, and
// repeated builds with one seed are byte-identical.
func TestMegaMallScalesAndIsDeterministic(t *testing.T) {
	m1, _, x1, err := MegaMall(3, 192, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m1.Rooms), 3*192; got != want {
		t.Fatalf("MegaMall(3, 192) built %d rooms, want %d", got, want)
	}
	small, _, _, err := MegaMall(3, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Space.NumPartitions() <= small.Space.NumPartitions() {
		t.Fatalf("doubling shops did not grow the venue: %d vs %d partitions",
			m1.Space.NumPartitions(), small.Space.NumPartitions())
	}
	m2, _, x2, err := MegaMall(3, 192, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Space.Export(), m2.Space.Export()) {
		t.Fatal("MegaMall space is not deterministic for a fixed seed")
	}
	if !reflect.DeepEqual(x1.Tables(), x2.Tables()) {
		t.Fatal("MegaMall keyword index is not deterministic for a fixed seed")
	}
}
