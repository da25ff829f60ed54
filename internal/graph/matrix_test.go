package graph

import (
	"math"
	"testing"

	"ikrq/internal/model"
)

// TestMatrixPathEdgeCases covers the static-path corners of the
// DistanceSource seam on the matrix (the code is shared with the oracle): a
// degenerate src==dst query, an unreachable target (disconnected space
// fragment), and the degrade-to-bound rejection under blocked and delayed
// next-hops.
func TestMatrixPathEdgeCases(t *testing.T) {
	ws := NewWorkspace()
	t.Run("src==dst", func(t *testing.T) {
		s, parts, doors := corridorSpace(t)
		pf := NewPathFinder(s)
		m := NewMatrix(pf)
		a := pf.StateOf(doors[0], parts[1])
		if d := m.Dist(a, a); d != 0 {
			t.Fatalf("Dist(a,a) = %v, want 0", d)
		}
		hops, dist, ok := m.AppendStaticPathIfAllowed(ws, nil, a, a, Costs{})
		if !ok || len(hops) != 0 || dist != 0 {
			t.Fatalf("static path a→a = %+v dist=%v ok=%v, want empty ok", hops, dist, ok)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		s := splitSpace(t)
		pf := NewPathFinder(s)
		m := NewMatrix(pf)
		// States of door 0 and door 1 live in disconnected fragments.
		a := pf.StatesOfDoor(0)[0]
		b := pf.StatesOfDoor(1)[0]
		if d := m.Dist(a, b); !math.IsInf(d, 1) {
			t.Fatalf("cross-fragment Dist = %v, want +Inf", d)
		}
		if hops, _, ok := m.AppendStaticPathIfAllowed(ws, nil, a, b, Costs{}); ok || hops != nil {
			t.Fatalf("cross-fragment static path = %+v ok=%v, want nil false", hops, ok)
		}
	})

	t.Run("blocked-and-delayed-next-hop", func(t *testing.T) {
		s, parts, doors := corridorSpace(t)
		pf := NewPathFinder(s)
		m := NewMatrix(pf)
		a := pf.StateOf(doors[0], parts[1]) // at d0 entered h1
		b := pf.StateOf(doors[1], parts[2]) // at d1 entered h2: one hop via d1
		if _, _, ok := m.AppendStaticPathIfAllowed(ws, nil, a, b, ForbidOnly(func(d model.DoorID) bool { return d == doors[1] })); ok {
			t.Fatal("static path ignored a blocked on-path door")
		}
		delay := func(d model.DoorID) float64 {
			if d == doors[1] {
				return 3
			}
			return 0
		}
		if _, _, ok := m.AppendStaticPathIfAllowed(ws, nil, a, b, Costs{Delay: delay}); ok {
			t.Fatal("static path ignored a delayed on-path door (it is no longer provably optimal)")
		}
		// Blocking or delaying an off-path door leaves the static path exact.
		offPath := Costs{
			Block: func(d model.DoorID) bool { return d == doors[2] },
			Delay: func(d model.DoorID) float64 {
				if d == doors[2] {
					return 9
				}
				return 0
			},
		}
		hops, dist, ok := m.AppendStaticPathIfAllowed(ws, nil, a, b, offPath)
		if !ok || len(hops) != 1 || hops[0].Door != doors[1] || dist != m.Dist(a, b) {
			t.Fatalf("off-path costs broke the static path: %+v dist=%v ok=%v", hops, dist, ok)
		}
	})
}

// TestNewMatrixParallelDeterministic is the parallel-build gate: the tables
// produced with several workers must be byte-identical to the one-worker
// (sequential) build — rows are independent single-source runs, so worker
// scheduling must not be observable in the output.
func TestNewMatrixParallelDeterministic(t *testing.T) {
	for name, s := range kernelSpaces(t) {
		t.Run(name, func(t *testing.T) {
			pf := NewPathFinder(s)
			seq := newMatrixWorkers(pf, 1)
			for _, workers := range []int{2, 4, 7} {
				par := newMatrixWorkers(pf, workers)
				if len(par.dist) != len(seq.dist) {
					t.Fatalf("w=%d: table sizes diverged", workers)
				}
				for i := range seq.dist {
					sd, pd := seq.dist[i], par.dist[i]
					if sd != pd && !(math.IsInf(sd, 1) && math.IsInf(pd, 1)) {
						t.Fatalf("w=%d: dist[%d] = %v, sequential %v", workers, i, pd, sd)
					}
				}
			}
		})
	}
}
