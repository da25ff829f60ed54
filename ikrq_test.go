package ikrq_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"ikrq"
)

// buildFacadeMall exercises the full public API surface: space building,
// keyword attachment, engine construction and search.
func buildFacadeMall(t testing.TB) (*ikrq.Engine, ikrq.Request) {
	t.Helper()
	b := ikrq.NewSpaceBuilder()
	h0 := b.AddPartition("h0", ikrq.KindHallway, ikrq.Rect(0, 0, 15, 10, 0))
	h1 := b.AddPartition("h1", ikrq.KindHallway, ikrq.Rect(15, 0, 30, 10, 0))
	cafe := b.AddPartition("cafe", ikrq.KindRoom, ikrq.Rect(15, 10, 30, 20, 0))
	b.AddDoor(ikrq.At(15, 5, 0), h0, h1)
	b.AddDoor(ikrq.At(22, 10, 0), h1, cafe)
	space, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	kb := ikrq.NewKeywordBuilder(space.NumPartitions())
	kb.AssignPartition(cafe, kb.DefineIWord("cafe", []string{"coffee", "cake"}))
	index, err := kb.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := ikrq.Request{
		Ps:    ikrq.At(2, 5, 0),
		Pt:    ikrq.At(28, 5, 0),
		Delta: 100,
		QW:    []string{"coffee"},
		K:     2,
		Alpha: 0.5,
		Tau:   0.2,
	}
	return ikrq.NewEngine(space, index), req
}

func TestFacadeEndToEnd(t *testing.T) {
	engine, req := buildFacadeMall(t)
	for _, alg := range []ikrq.Algorithm{ikrq.ToE, ikrq.KoE} {
		res, err := engine.Search(req, ikrq.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Routes) == 0 {
			t.Fatalf("%v: no routes", alg)
		}
		best := res.Routes[0]
		// The best route detours past the cafe door: ρ = 2.
		if math.Abs(best.Rho-2) > 1e-9 {
			t.Errorf("%v: best ρ = %v, want 2", alg, best.Rho)
		}
	}
}

func TestFacadeVariants(t *testing.T) {
	engine, req := buildFacadeMall(t)
	for _, v := range ikrq.Variants() {
		opt, err := ikrq.OptionsFor(v)
		if err != nil {
			t.Fatalf("OptionsFor(%s): %v", v, err)
		}
		res, err := engine.Search(req, opt)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(res.Routes) == 0 {
			t.Errorf("%s: no routes", v)
		}
	}
}

func TestFacadeSnapshotRoundTrip(t *testing.T) {
	engine, req := buildFacadeMall(t)
	engine.Precompute()

	var buf bytes.Buffer
	if err := ikrq.SaveSnapshot(&buf, engine); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	loaded, err := ikrq.LoadEngine(&buf)
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	for _, v := range ikrq.Variants() {
		opt, err := ikrq.OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Search(req, opt)
		if err != nil {
			t.Fatalf("%s fresh: %v", v, err)
		}
		got, err := loaded.Search(req, opt)
		if err != nil {
			t.Fatalf("%s loaded: %v", v, err)
		}
		if !reflect.DeepEqual(got.Routes, want.Routes) {
			t.Errorf("%s: loaded engine routes differ from fresh engine", v)
		}
	}

	if _, err := ikrq.LoadEngine(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("LoadEngine accepted garbage")
	}
}

func TestFacadeGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation")
	}
	mall, vocab, index, err := ikrq.NewSyntheticMall(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mall.Space.NumPartitions() != 3*141 {
		t.Errorf("partitions = %d", mall.Space.NumPartitions())
	}
	engine := ikrq.NewEngine(mall.Space, index)
	qgen := ikrq.NewQueryGen(mall, index, vocab, engine, 4)
	cfg := ikrq.DefaultQueryConfig(4)
	cfg.Instances = 1
	cfg.S2T = 1000
	reqs, err := qgen.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Search(reqs[0], ikrq.Options{Algorithm: ikrq.ToE})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) == 0 {
		t.Error("no routes on generated mall")
	}
}
