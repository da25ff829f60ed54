package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Matrix holds precomputed all-pairs shortest distances over the
// PathFinder's state graph: the exact distance table of the KoE* variant
// (Section V-A3). Routing to the next key partition reads the table for
// its bounds, splices the static shortest path, and falls back to an
// on-the-fly search when that path violates the regularity check (doors
// already used by the partial route).
//
// The matrix stores no paths. Like the hierarchical Oracle, it recovers a
// static path from the deterministic kernel (AppendStaticPathIfAllowed, and
// the searcher's per-tail LazyTree), which is hop-for-hop the parent chain
// of the source's Dijkstra tree — so both backends serve byte-identical
// routes even on distance ties (DESIGN.md §10).
//
// Memory is Θ(states²), which is exactly the order-of-magnitude overhead
// the paper reports for KoE* in Fig. 14.
type Matrix struct {
	staticPaths
	n    int
	dist []float64 // n×n row-major, +Inf for unreachable
}

// NewMatrix precomputes the distance table with one Dijkstra per state,
// fanned out over GOMAXPROCS workers. Each worker owns a private kernel
// workspace and writes disjoint rows, and rows are independent single-source
// computations, so the result is byte-identical to a sequential build
// regardless of scheduling (asserted by TestNewMatrixParallelDeterministic).
func NewMatrix(pf *PathFinder) *Matrix {
	return newMatrixWorkers(pf, runtime.GOMAXPROCS(0))
}

// matrixRowChunk is the number of source rows a worker claims per grab:
// large enough to amortize the atomic, small enough to balance uneven rows.
const matrixRowChunk = 16

// newMatrixWorkers is NewMatrix with an explicit worker count (the
// determinism test pins it; production always passes GOMAXPROCS).
func newMatrixWorkers(pf *PathFinder, workers int) *Matrix {
	n := pf.NumStates()
	m := &Matrix{staticPaths: staticPaths{pf}, n: n, dist: make([]float64, n*n)}
	if workers > (n+matrixRowChunk-1)/matrixRowChunk {
		workers = (n + matrixRowChunk - 1) / matrixRowChunk
	}
	if workers <= 1 {
		m.buildRows(NewWorkspace(), 0, n)
		return m
	}
	var nextRow atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace()
			for {
				hi := int(nextRow.Add(matrixRowChunk))
				lo := hi - matrixRowChunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				m.buildRows(ws, lo, hi)
			}
		}()
	}
	wg.Wait()
	return m
}

// buildRows fills the table rows for sources [lo, hi) on one workspace,
// writing every cell (+Inf where the run never reached the target). Rows of
// distinct workers are disjoint, so no synchronization is needed beyond the
// completion barrier.
func (m *Matrix) buildRows(ws *Workspace, lo, hi int) {
	seed := make([]Seed, 1)
	for src := lo; src < hi; src++ {
		seed[0] = Seed{State: StateID(src)}
		m.pf.dijkstra(ws, seed, Costs{}, nil)
		row := m.dist[src*m.n : (src+1)*m.n]
		for t := range row {
			row[t] = ws.distAt(StateID(t))
		}
	}
}

// Dist returns the precomputed shortest distance between two states.
func (m *Matrix) Dist(a, b StateID) float64 { return m.dist[int(a)*m.n+int(b)] }

// Bytes returns the resident size of the distance table, reported by the
// KoE* memory experiments.
func (m *Matrix) Bytes() int64 { return MatrixBytes(m.n) }

// MatrixBytes is the resident size of a dense matrix over the given number
// of states: one float64 per ordered state pair. The scaling benchmark reads
// it for venues too large to build the matrix.
func MatrixBytes(states int) int64 { return int64(states) * int64(states) * 8 }
