package server

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ikrq/internal/geom"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
)

// testSpace is the small single-floor mall the search package's oracle
// tests use: four hallway cells in a row, six shops hanging off them.
func testSpace(t testing.TB) (*model.Space, *keyword.Index) {
	t.Helper()
	b := model.NewBuilder()
	var hall [4]model.PartitionID
	for i := 0; i < 4; i++ {
		hall[i] = b.AddPartition("h"+string(rune('0'+i)), model.KindHallway,
			geom.R(float64(10*i), 0, float64(10*i+10), 10, 0))
	}
	shopNames := []string{"starbucks", "costa", "apple", "samsung", "zara", "hm"}
	shopBounds := []geom.Rect{
		geom.R(0, 10, 10, 20, 0),
		geom.R(10, 10, 20, 20, 0),
		geom.R(20, 10, 30, 20, 0),
		geom.R(30, 10, 40, 20, 0),
		geom.R(10, -10, 20, 0, 0),
		geom.R(20, -10, 30, 0, 0),
	}
	shopHall := []int{0, 1, 2, 3, 1, 2}
	var shops [6]model.PartitionID
	for i, name := range shopNames {
		shops[i] = b.AddPartition(name, model.KindRoom, shopBounds[i])
	}
	for i := 0; i < 3; i++ {
		b.AddDoor(geom.Pt(float64(10*i+10), 5, 0), hall[i], hall[i+1])
	}
	for i := range shops {
		sb := shopBounds[i]
		y := sb.MinY
		if sb.MinY < 0 {
			y = sb.MaxY
		}
		b.AddDoor(geom.Pt((sb.MinX+sb.MaxX)/2, y, 0), hall[shopHall[i]], shops[i])
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	kb := keyword.NewIndexBuilder(s.NumPartitions())
	twords := map[string][]string{
		"starbucks": {"coffee", "latte", "mocha"},
		"costa":     {"coffee", "mocha", "tea"},
		"apple":     {"phone", "laptop"},
		"samsung":   {"phone", "laptop", "tv"},
		"zara":      {"coat", "pants"},
		"hm":        {"coat", "shirt"},
	}
	for i, name := range shopNames {
		kb.AssignPartition(shops[i], kb.DefineIWord(name, twords[name]))
	}
	x, err := kb.Build()
	if err != nil {
		t.Fatalf("keyword Build: %v", err)
	}
	return s, x
}

// testEngine builds an engine over the fixture mall with the KoE* backend
// precomputed, so KoE* queries never pay the build mid-test.
func testEngine(t testing.TB) *search.Engine {
	t.Helper()
	s, x := testSpace(t)
	e := search.NewEngine(s, x)
	e.Precompute()
	return e
}

// bakeSnapshot writes the engine to a snapshot file under t.TempDir and
// returns its path.
func bakeSnapshot(t testing.TB, e *search.Engine) string {
	t.Helper()
	return bakeSnapshotIn(t, t.TempDir(), "venue.ikrq", e)
}

// bakeSnapshotIn writes the engine to dir/name — the reload tests bake into
// a server's snapshot root — and returns the full path.
func bakeSnapshotIn(t testing.TB, dir, name string, e *search.Engine) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create snapshot: %v", err)
	}
	if err := snapshot.SaveEngine(f, e); err != nil {
		t.Fatalf("save snapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close snapshot: %v", err)
	}
	return path
}

// memLoader serves fixed engines by venue name without disk, counting
// loads per venue. Safe for concurrent loads of distinct venues.
type memLoader struct {
	mu      sync.Mutex
	engines map[string]*search.Engine
	loads   map[string]int
}

func (m *memLoader) load(cfg VenueConfig) (*search.Engine, error) {
	m.mu.Lock()
	if m.loads == nil {
		m.loads = make(map[string]int)
	}
	m.loads[cfg.Name]++
	e, ok := m.engines[cfg.Name]
	m.mu.Unlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	return e, nil
}

func (m *memLoader) loadCount(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loads[name]
}
