package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
)

// TestRunSnapshotOracleBake runs the snapshot report on an oracle bake of
// the 2-floor synthetic mall. The report must name the baked backend, and
// the rebuild it times against must derive it too — not skip the very
// build the snapshot exists to save.
func TestRunSnapshotOracleBake(t *testing.T) {
	mall, _, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.Precompute()
	path := filepath.Join(t.TempDir(), "mall.ikrq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveEngine(f, eng); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := QuickConfig(5)
	cfg.Instances = 1
	rep, err := RunSnapshot(path, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "oracle" {
		t.Errorf("report backend %q, want oracle", rep.Backend)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if out := buf.String(); !strings.Contains(out, "includes KoE* oracle") || strings.Contains(out, "lazy build") {
		t.Errorf("report misstates the baked backend:\n%s", out)
	}

	opened, err := snapshot.OpenEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	rebuilt := rebuild(opened)
	if ds := rebuilt.DistanceSourceIfReady(); ds == nil || ds.Kind() != "oracle" {
		t.Error("the rebuild of an oracle bake did not derive an oracle")
	}
}
