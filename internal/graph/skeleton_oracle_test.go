// Mall-level bound oracle: Skeleton.LowerBound against the pre-hoist
// reference kept in refskeleton_test.go (reached through export_test.go),
// bit for bit, on both evaluation malls. Pruning Rules 1–4 compare these
// bounds against route distances, so an ULP of drift can move a prune
// decision; equal bits keep every route and Stats counter unchanged.
// External test package because it drives the generated malls.
package graph_test

import (
	"math"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/geom"
	"ikrq/internal/graph"
)

// TestSkeletonBoundOracle checks every door against a dense sample of the
// other doors (every boundStride-th, offset per row so all pairs' residues
// are covered), and the query generator's start and end points against
// every door and each other.
func TestSkeletonBoundOracle(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		mall, voc, idx, err := gen.SyntheticMall(3, 7)
		if err != nil {
			t.Fatal(err)
		}
		qg := gen.NewQueryGen(mall, idx, voc, graph.NewPathFinder(mall.Space), 23)
		boundOracle(t, mall, qg, gen.DefaultQueryConfig(23))
	})
	t.Run("real", func(t *testing.T) {
		mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		qg := gen.NewQueryGen(mall, idx, voc, graph.NewPathFinder(mall.Space), 29)
		cfg := gen.DefaultQueryConfig(29)
		cfg.Alpha = 0.7
		boundOracle(t, mall, qg, cfg)
	})
}

const boundStride = 7

func boundOracle(t *testing.T, mall *gen.Mall, qg *gen.QueryGen, cfg gen.QueryConfig) {
	t.Helper()
	s := mall.Space
	sk := graph.NewSkeleton(s)
	ref := sk.ReferenceLowerBound()
	cross := 0
	check := func(a, b geom.Point) {
		got, want := sk.LowerBound(a, b), ref(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LowerBound(%v, %v) = %v (%#x), reference %v (%#x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if a.Floor != b.Floor {
			cross++
		}
	}
	doors := s.Doors()
	for i := range doors {
		for j := i % boundStride; j < len(doors); j += boundStride {
			check(doors[i].Pos, doors[j].Pos)
		}
	}
	cfg.Instances = 8
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		check(r.Ps, r.Pt)
		for _, d := range doors {
			check(r.Ps, d.Pos)
			check(d.Pos, r.Pt)
		}
	}
	if cross == 0 {
		t.Fatal("no cross-floor pair checked")
	}
	t.Logf("%d pairs across floors checked", cross)
}
