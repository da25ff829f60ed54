// Mall-level bound oracles: Skeleton.LowerBound and PartitionBound against
// the references kept in refskeleton_test.go (reached through
// export_test.go), bit for bit, on both evaluation malls. Pruning Rules 1–4 compare these
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
	"ikrq/internal/model"
)

// TestSkeletonBoundOracle checks every door against a dense sample of the
// other doors (every boundStride-th, offset per row so all pairs' residues
// are covered), and the query generator's start and end points against
// every door and each other.
func TestSkeletonBoundOracle(t *testing.T) { bothMalls(t, boundOracle) }

// TestStairRowBoundOracle checks the per-query staircase rows against
// LowerBound, bit for bit, through both a StairRow and StairLegs: every
// boundStride-th door and the query generator's start points, each to and
// from every door, and to the generator's end points. Same-floor pairs are
// checked too, since the rows answer them as well.
func TestStairRowBoundOracle(t *testing.T) { bothMalls(t, stairRowOracle) }

// TestPartitionBoundOracle checks the host-taking PartitionBound with the
// hosts the searcher passes: Rule 3's bound from the query generator's
// start points through every partition to its end points, and the via
// bound from door positions, each door's host point-located as the
// searcher's per-query memo does, which need not be one of the door's own
// partitions. Every door serves as a via point once across the requests,
// each through every boundStride-th partition (offset per door).
func TestPartitionBoundOracle(t *testing.T) { bothMalls(t, partitionBoundOracle) }

// bothMalls runs an oracle on the synthetic and the real evaluation mall,
// each with a query generator and a Table IV query configuration.
func bothMalls(t *testing.T, oracle func(*testing.T, *gen.Mall, *gen.QueryGen, gen.QueryConfig)) {
	t.Run("synthetic", func(t *testing.T) {
		mall, voc, idx, err := gen.SyntheticMall(3, 7)
		if err != nil {
			t.Fatal(err)
		}
		qg := gen.NewQueryGen(mall, idx, voc, graph.NewPathFinder(mall.Space), 23)
		oracle(t, mall, qg, gen.DefaultQueryConfig(23))
	})
	t.Run("real", func(t *testing.T) {
		mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		qg := gen.NewQueryGen(mall, idx, voc, graph.NewPathFinder(mall.Space), 29)
		cfg := gen.DefaultQueryConfig(29)
		cfg.Alpha = 0.7
		oracle(t, mall, qg, cfg)
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

func partitionBoundOracle(t *testing.T, mall *gen.Mall, qg *gen.QueryGen, cfg gen.QueryConfig) {
	t.Helper()
	s := mall.Space
	sk := graph.NewSkeleton(s)
	ref := sk.ReferencePartitionBound()
	checked := 0
	check := func(ps geom.Point, hostPs, v model.PartitionID, pt geom.Point, hostPt model.PartitionID) {
		got, want := sk.PartitionBound(ps, hostPs, v, pt, hostPt), ref(ps, v, pt)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PartitionBound(%v, %d, %v) = %v (%#x), reference %v (%#x)",
				ps, v, pt, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checked++
	}
	cfg.Instances = 8
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	np := s.NumPartitions()
	for k, r := range reqs {
		hostPs, hostPt := s.HostPartition(r.Ps), s.HostPartition(r.Pt)
		for v := 0; v < np; v++ {
			check(r.Ps, hostPs, model.PartitionID(v), r.Pt, hostPt)
		}
		for i := k; i < s.NumDoors(); i += len(reqs) {
			d := s.Door(model.DoorID(i))
			host := s.HostPartition(d.Pos)
			for v := i % boundStride; v < np; v += boundStride {
				check(d.Pos, host, model.PartitionID(v), r.Pt, hostPt)
			}
		}
	}
	t.Logf("%d bounds checked", checked)
}

func stairRowOracle(t *testing.T, mall *gen.Mall, qg *gen.QueryGen, cfg gen.QueryConfig) {
	t.Helper()
	s := mall.Space
	sk := graph.NewSkeleton(s)
	var row graph.StairRow
	var legs graph.StairLegs
	same, cross := 0, 0
	check := func(a, b geom.Point) {
		want := sk.LowerBound(a, b)
		sk.FillStairRow(&row, a)
		sk.FillStairLegs(&legs, b)
		for _, got := range []float64{sk.BoundFrom(&row, b), sk.BoundTo(a, &legs)} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("|%v, %v|L from the staircase rows = %v (%#x), LowerBound %v (%#x)",
					a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if a.Floor == b.Floor {
			same++
		} else {
			cross++
		}
	}
	cfg.Instances = 8
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doors := s.Doors()
	var points []geom.Point
	for i := 3; i < len(doors); i += boundStride {
		points = append(points, doors[i].Pos)
	}
	for _, r := range reqs {
		points = append(points, r.Ps)
	}
	for _, a := range points {
		for _, d := range doors {
			check(a, d.Pos)
			check(d.Pos, a)
		}
		for _, r := range reqs {
			check(a, r.Pt)
		}
	}
	if same == 0 || cross == 0 {
		t.Fatalf("%d same-floor and %d cross-floor pairs checked; want both", same, cross)
	}
	t.Logf("%d same-floor and %d cross-floor pairs checked", same, cross)
}
