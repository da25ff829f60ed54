package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"ikrq/internal/gen"
	"ikrq/internal/search"
)

// ikrqdBin is the daemon binary TestMain builds for the self-check.
var ikrqdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e2ebench-test-")
	if err != nil {
		panic(err)
	}
	ikrqdBin = filepath.Join(dir, "ikrqd")
	out, err := exec.Command("go", "build", "-o", ikrqdBin, "ikrq/cmd/ikrqd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building ikrqd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSelfCheck is the benchmark's short mode: every workload for a few
// seconds with tracing on. Every named metric must be present and finite,
// nothing may fail, and the trace must hold spans of every layer.
func TestSelfCheck(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 7, seconds: 3, trace: true, ikrqd: ikrqdBin, work: t.TempDir()}
			rep, err := runBench(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, list := range [][]metric{endToEnd, perLayer} {
				for _, m := range list {
					v, ok := rep.values[m.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s missing or not finite (%v)", m.name, v)
					}
				}
			}
			for _, m := range endToEnd {
				if rep.values[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, rep.values[m.name])
				}
			}
			if rep.failed != 0 || rep.values["failed_frac"] != 0 || !rep.correct() {
				t.Errorf("failed %d of %d: %v", rep.failed, rep.attempted, rep.failures)
			}
			for _, l := range layers {
				if rep.spanLayers[l] == 0 {
					t.Errorf("trace has no %s span", l)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit string
	}
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], the command prints %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
}

// TestCheckerCatchesCorruptAnswer feeds the checker a served body whose
// route distance was altered in the last digit.
func TestCheckerCatchesCorruptAnswer(t *testing.T) {
	m, v, x, err := gen.SyntheticMall(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(m.Space, x)
	reqs, err := routeQueries(&venue{mall: m, vocab: v, index: x, eng: eng}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := routeOp(reqs[0], search.VariantToE, false)
	chk := newChecker(eng, &streams{})
	routes, err := chk.expected(&o, nil)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []routeJSON
	if err := json.Unmarshal(routes, &decoded); err != nil || len(decoded) == 0 {
		t.Fatalf("expected answer %s: %v", routes, err)
	}
	body := func(rs []routeJSON) []byte {
		b, err := json.Marshal(map[string]any{"routes": rs, "stats": map[string]any{}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	chk.checkResult("test", 0, &o, &result{status: 200, body: body(decoded)})
	if n := chk.failures.Load(); n != 0 {
		t.Fatalf("a correct answer failed the check: %v", chk.msgs)
	}
	decoded[0].Dist = math.Nextafter(decoded[0].Dist, math.Inf(1))
	chk.checkResult("test", 1, &o, &result{status: 200, body: body(decoded)})
	if n := chk.failures.Load(); n != 1 {
		t.Fatalf("a corrupted answer passed the check (failures %d)", n)
	}
	chk.checkResult("test", 2, &o, &result{status: 503, body: []byte(`{}`)})
	if n := chk.failures.Load(); n != 2 {
		t.Fatalf("a non-2xx answer passed the check (failures %d)", n)
	}
}

// TestHistQuantile checks the log-linear histogram against exact ranks.
func TestHistQuantile(t *testing.T) {
	var a, b hist
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Millisecond
		if i%2 == 0 {
			a.record(d)
		} else {
			b.record(d)
		}
	}
	a.merge(&b)
	for _, c := range []struct{ q, want float64 }{{0.5, 500.5}, {0.99, 990.01}} {
		if got := a.quantile(c.q); math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("q%.2f = %.3f ms, want %.3f ms within 1%%", c.q, got, c.want)
		}
	}
}
