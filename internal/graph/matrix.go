package graph

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ikrq/internal/model"
)

// Matrix holds precomputed all-pairs shortest distances and per-source
// shortest-path trees over the PathFinder's state graph. It backs the KoE*
// variant: routing to the next key partition consults the matrix instead of
// running Dijkstra, and falls back to an on-the-fly search when the
// precomputed path violates the regularity check (doors already used by the
// partial route).
//
// Row a of prev stores the parent pointers of source a's deterministic
// Dijkstra tree, so a matrix path is the tree's parent chain — hop-for-hop
// identical to what reconstructInto yields from a fresh kernel run over the
// same source. That identity is what lets the hierarchical Oracle (which
// recovers paths with on-demand Dijkstras) and the dense matrix serve
// byte-identical routes even on distance ties, where a next-hop table
// stitched from per-target trees would diverge.
//
// Memory is Θ(states²), which is exactly the order-of-magnitude overhead
// the paper reports for KoE* in Fig. 14.
type Matrix struct {
	pf   *PathFinder
	n    int
	dist []float64 // n×n row-major
	prev []StateID // n×n row-major: prev[a*n+b] = parent of b in a's tree
}

// NewMatrix precomputes the all-pairs tables with one Dijkstra per state,
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
	m := &Matrix{pf: pf, n: n}
	m.dist = make([]float64, n*n)
	m.prev = make([]StateID, n*n)
	for i := range m.dist {
		m.dist[i] = math.Inf(1)
		m.prev[i] = NoState
	}
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

// buildRows fills the table rows for sources [lo, hi) on one workspace.
// Rows of distinct workers are disjoint, so no synchronization is needed
// beyond the completion barrier.
func (m *Matrix) buildRows(ws *Workspace, lo, hi int) {
	pf := m.pf
	seed := make([]Seed, 1)
	for src := lo; src < hi; src++ {
		seed[0] = Seed{State: StateID(src)}
		pf.dijkstra(ws, seed, Costs{}, nil)
		row := src * m.n
		for t := 0; t < m.n; t++ {
			d := ws.distAt(StateID(t))
			if math.IsInf(d, 1) {
				continue // unreachable: ws.parent[t] is stale, keep NoState
			}
			m.dist[row+t] = d
			m.prev[row+t] = ws.parent[t]
		}
	}
}

// Dist returns the precomputed shortest distance between two states.
func (m *Matrix) Dist(a, b StateID) float64 { return m.dist[int(a)*m.n+int(b)] }

// Path reconstructs the precomputed shortest hop sequence from a to b
// (excluding a's own door). ok is false when b is unreachable.
func (m *Matrix) Path(a, b StateID) ([]Hop, bool) {
	hops, ok := m.AppendPath(nil, a, b)
	if !ok {
		return nil, false
	}
	return hops, true
}

// AppendPath is Path appending into a caller-owned buffer. On failure the
// returned slice may carry a partial suffix past dst's original length;
// callers reusing a buffer re-slice it anyway.
func (m *Matrix) AppendPath(dst []Hop, a, b StateID) ([]Hop, bool) {
	if math.IsInf(m.Dist(a, b), 1) {
		return dst, false
	}
	// Walk b's parent chain in a's tree, then reverse the appended segment
	// — the same reconstruction the kernel performs on a fresh tree.
	start := len(dst)
	row := int(a) * m.n
	for cur := b; cur != a; {
		d, p := m.pf.State(cur)
		dst = append(dst, Hop{Door: d, Part: p})
		cur = m.prev[row+int(cur)]
		if cur == NoState {
			return dst, false // defensive: finite dist must chain to a
		}
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst, true
}

// PathIfAllowed returns the precomputed path only when the cost model
// leaves it exact: no door on it is blocked (regularity exclusions,
// overlay closures) and no door on it carries a delay. Otherwise ok is
// false and the caller must recompute with a constrained Dijkstra — the
// recomputation KoE* pays on regularity failures and, under a live
// overlay, on paths the overlay invalidates.
//
// The delay guard is what degrades the matrix from an exact-distance
// source to a lower-bound source under an overlay: the stored path is the
// static optimum, and when none of its own doors is penalized its cost is
// unchanged while every alternative can only have grown, so it remains
// optimal; a penalized door on the path voids that argument (some detour
// may now be cheaper), hence the fallback. Closures and delays elsewhere in
// the graph never invalidate it. Matrix.Dist stays untouched either way and
// is always an admissible lower bound of the overlaid distance.
func (m *Matrix) PathIfAllowed(a, b StateID, costs Costs) ([]Hop, float64, bool) {
	hops, d, ok := m.AppendPathIfAllowed(nil, a, b, costs)
	if !ok {
		return nil, 0, false
	}
	return hops, d, true
}

// AppendPathIfAllowed is PathIfAllowed appending into a caller-owned
// buffer (same partial-suffix caveat as AppendPath).
func (m *Matrix) AppendPathIfAllowed(dst []Hop, a, b StateID, costs Costs) ([]Hop, float64, bool) {
	start := len(dst)
	dst, ok := m.AppendPath(dst, a, b)
	if !ok || !costs.AllowsStatic(dst[start:]) {
		return dst, 0, false
	}
	return dst, m.Dist(a, b), true
}

// Bytes estimates the resident size of the matrix tables, reported by the
// KoE* memory experiments.
func (m *Matrix) Bytes() int64 {
	return int64(m.n) * int64(m.n) * (8 + 4)
}

// DoorDist returns the shortest distance between two doors, minimized over
// entered-partition states — the "door-to-door matrix" view used by tests.
func (m *Matrix) DoorDist(a, b model.DoorID) float64 {
	best := math.Inf(1)
	for _, sa := range m.pf.StatesOfDoor(a) {
		for _, sb := range m.pf.StatesOfDoor(b) {
			if d := m.Dist(sa, sb); d < best {
				best = d
			}
		}
	}
	return best
}
