package bench

import (
	"bytes"
	"strings"
	"testing"

	"ikrq/internal/search"
)

func quickEnv(t testing.TB) *Env {
	t.Helper()
	cfg := QuickConfig(5)
	cfg.Instances = 2
	return NewEnv(cfg)
}

func TestFigurePrinting(t *testing.T) {
	f := &Figure{
		ID: "figXX", Title: "demo", XLabel: "k", YLabel: "time (ms)",
		Series: []Series{
			{Name: "ToE", X: []float64{1, 3}, Y: []float64{0.5, 0.75}},
			{Name: "KoE", X: []float64{1, 3}, Y: []float64{1.5, 250}, Note: "capped"},
		},
	}
	var buf bytes.Buffer
	f.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"figXX", "ToE", "KoE", "0.5000", "250", "note: KoE — capped", "time (ms)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if f.SeriesByName("ToE") == nil || f.SeriesByName("nope") != nil {
		t.Error("SeriesByName wrong")
	}
}

// TestOptionsForCapsEveryVariant: every figure variant runs under the
// expansion cap, not only the unpruned ToE\P. Rule 4 cannot prune before k
// routes complete, so a pruned variant can run away too: one Fig12
// instance of the quick workload did under ToE.
func TestOptionsForCapsEveryVariant(t *testing.T) {
	e := NewEnv(QuickConfig(1))
	for _, v := range search.Variants() {
		opt, err := e.optionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		if opt.MaxExpansions != e.Cfg.CapExpansions {
			t.Errorf("%s: MaxExpansions %d, want the cap %d", v, opt.MaxExpansions, e.Cfg.CapExpansions)
		}
	}
}

func TestQuickFig05ShapesAndSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale workload")
	}
	e := quickEnv(t)
	fig, err := e.Fig05K()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 6 {
			t.Errorf("%s has %d points, want 6", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if y < 0 {
				t.Errorf("%s has negative time %v", s.Name, y)
			}
		}
	}
}

func TestQuickFig16HomogRate(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale workload")
	}
	e := quickEnv(t)
	fig, err := e.Fig16HomogRate()
	if err != nil {
		t.Fatal(err)
	}
	s := fig.SeriesByName("ToE\\P")
	if s == nil {
		t.Fatal("missing ToE\\P series")
	}
	for i, y := range s.Y {
		if y < 0 || y > 1 {
			t.Errorf("rate out of range at k=%v: %v", s.X[i], y)
		}
	}
	// The paper's qualitative finding: the rate grows with k and is
	// substantial for k ≥ 3.
	if s.Y[len(s.Y)-1] < s.Y[0] {
		t.Errorf("homogeneous rate decreasing: %v", s.Y)
	}
}

func TestEnvCachesWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale workload")
	}
	e := quickEnv(t)
	a, err := e.Synthetic(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Synthetic(3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("workload not cached")
	}
}

func TestOrderCoversAll(t *testing.T) {
	e := NewEnv(QuickConfig(1))
	all := e.All()
	if len(Order()) != len(all) {
		t.Fatalf("Order has %d entries, All has %d", len(Order()), len(all))
	}
	for _, id := range Order() {
		if all[id] == nil {
			t.Errorf("figure %s missing from All", id)
		}
	}
}
