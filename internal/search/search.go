// Package search implements the IKRQ search framework of Section IV: the
// unified find-and-connect loop (Algorithm 1), the topology-oriented
// expansion ToE (Algorithm 2), the keyword-oriented expansion KoE
// (Algorithm 6), the connect step (Algorithm 5), Pruning Rules 1–5 and the
// ablation variants evaluated in Section V (ToE\D, ToE\B, ToE\P, KoE\D,
// KoE\B, KoE*).
package search

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ikrq/internal/geom"
	"ikrq/internal/graph"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
)

// Algorithm selects the expansion strategy.
type Algorithm uint8

const (
	// ToE expands hop by hop over the indoor topology (Algorithm 2).
	ToE Algorithm = iota
	// KoE jumps directly to partitions covering uncovered query keywords
	// (Algorithm 6).
	KoE
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	if a == KoE {
		return "KoE"
	}
	return "ToE"
}

// Options configures a search run: the base algorithm and the ablation
// switches of Table III.
type Options struct {
	Algorithm Algorithm

	// DisableDistancePruning turns off Pruning Rules 1–3 (the \D variants).
	// The plain constraint δ(R) ≤ Δ always applies.
	DisableDistancePruning bool

	// DisableKBound turns off Pruning Rule 4 (the \B variants).
	DisableKBound bool

	// DisablePrime turns off Pruning Rule 5 and the result-set
	// diversification (ToE\P). Meaningless for KoE, which is built on prime
	// routes; Search rejects the combination.
	DisablePrime bool

	// Precompute makes KoE consult an all-pairs shortest-route matrix and
	// recompute only on regularity failures (KoE*). Only valid with KoE.
	Precompute bool

	// DisableBackendBound turns off KoE*'s backend-bound pruning: the
	// distance backend's admissible state-to-state bounds tightening Rules 1
	// and 4 and gating targets before path recovery (see findKoE). An
	// ablation/debug switch — routes and scores are identical either way
	// (the backend-bound gate test pins this); only work counters move.
	// Meaningless without Precompute.
	DisableBackendBound bool

	// StrictPaperConnect reproduces Algorithm 5 literally: stamps that
	// reach the terminal partition or that cover every query keyword
	// perfectly are finalized and never expanded further. The default
	// (false) also re-queues such stamps, which keeps the search exact
	// with respect to the exhaustive baseline (see DESIGN.md §4.1).
	StrictPaperConnect bool

	// MaxExpansions caps the number of stamp expansions as a safety valve
	// for the intentionally unpruned variants (ToE\P grows exponentially).
	// 0 means unlimited. When the cap fires the result carries
	// Stats.Truncated = true.
	MaxExpansions int

	// SoftDeltaSlack implements the paper's "soft distance constraint"
	// future work (Section VII): routes up to Δ·(1+slack) are admitted;
	// their spatial score (Δ−δ)/Δ goes negative past Δ, so they rank below
	// in-budget routes of equal relevance. 0 keeps the hard constraint.
	SoftDeltaSlack float64

	// PopularityWeight γ folds per-partition popularity (set via
	// Engine.SetPopularity) into the ranking:
	// ψ' = ψ + γ · mean popularity over the route's key partitions —
	// the paper's "incorporate route popularity" future work. 0 disables.
	PopularityWeight float64
}

// Variant names the algorithm configurations of Table III and is used by
// the benchmark harness.
type Variant string

// The comparable methods of Table III.
const (
	VariantToE     Variant = "ToE"
	VariantToED    Variant = "ToE\\D"
	VariantToEB    Variant = "ToE\\B"
	VariantToEP    Variant = "ToE\\P"
	VariantKoE     Variant = "KoE"
	VariantKoED    Variant = "KoE\\D"
	VariantKoEB    Variant = "KoE\\B"
	VariantKoEStar Variant = "KoE*"
)

// OptionsFor returns the Options for a named variant of Table III.
func OptionsFor(v Variant) (Options, error) {
	switch v {
	case VariantToE:
		return Options{Algorithm: ToE}, nil
	case VariantToED:
		return Options{Algorithm: ToE, DisableDistancePruning: true}, nil
	case VariantToEB:
		return Options{Algorithm: ToE, DisableKBound: true}, nil
	case VariantToEP:
		return Options{Algorithm: ToE, DisablePrime: true}, nil
	case VariantKoE:
		return Options{Algorithm: KoE}, nil
	case VariantKoED:
		return Options{Algorithm: KoE, DisableDistancePruning: true}, nil
	case VariantKoEB:
		return Options{Algorithm: KoE, DisableKBound: true}, nil
	case VariantKoEStar:
		return Options{Algorithm: KoE, Precompute: true}, nil
	default:
		return Options{}, fmt.Errorf("search: unknown variant %q", v)
	}
}

// Variants lists all comparable methods in the paper's order.
func Variants() []Variant {
	return []Variant{
		VariantToE, VariantToED, VariantToEB, VariantToEP,
		VariantKoE, VariantKoED, VariantKoEB, VariantKoEStar,
	}
}

// Request is one IKRQ(ps, pt, Δ, QW, k) instance plus the scoring
// parameters α (keyword/distance tradeoff, Equation 1) and τ (candidate
// similarity threshold, Definition 4).
type Request struct {
	Ps, Pt geom.Point
	Delta  float64
	QW     []string
	K      int
	Alpha  float64
	Tau    float64

	// Conditions, when non-nil, overlays live venue state on the query:
	// closed doors no route may pass and per-door traversal penalties added
	// to δ on every pass. The overlay is applied at query time against the
	// unchanged index layer — closures and penalties only remove edges or
	// increase costs, so the static lower bounds behind Pruning Rules 1–4
	// stay admissible and the search stays exact without any rebuild
	// (DESIGN.md §7). Distinct concurrent queries may carry distinct
	// overlays against one shared engine.
	Conditions *model.Conditions
}

// Route is one returned route with its scores.
type Route struct {
	// Doors is the door sequence from ps to pt.
	Doors []model.DoorID
	// Entered[i] is the partition committed to after passing Doors[i].
	Entered []model.PartitionID
	// KP is the key-partition sequence defining the route's homogeneity
	// class.
	KP []model.PartitionID
	// Dist is the route distance δ(R).
	Dist float64
	// Rho is the keyword relevance ρ(R) and Sims its per-keyword best
	// similarities.
	Rho  float64
	Sims []float64
	// Psi is the ranking score ψ(R).
	Psi float64
}

// Stats reports the cost of a search run.
type Stats struct {
	Elapsed time.Duration

	// Pops counts stamps taken off the priority queue; StampsCreated the
	// stamps materialized (the paper's memory proxy — ToE caches more
	// intermediate stamps than KoE).
	Pops          int
	StampsCreated int
	PeakQueue     int

	// Pruning counters, one per rule.
	PrunedRule1      int // partial-route lower bound
	PrunedRule2      int // door-level lower bound
	PrunedRule3      int // partition-level lower bound (KoE)
	PrunedRule4      int // kbound
	PrunedRule5      int // prime routes
	PrunedRegularity int // regularity principle incl. Lemma 2
	PrunedDelta      int // plain δ > Δ constraint
	PrunedClosed     int // expansions blocked by overlay closures (per screening, not per door)
	PrunedBackend    int // KoE* targets dropped by the backend bound before path recovery

	// Recomputations counts KoE* matrix paths rejected by the regularity
	// check and recomputed on the fly.
	Recomputations int
	// IrregularPaths counts spliced shortest paths discarded because they
	// would repeat a door of the partial route non-consecutively.
	IrregularPaths int

	// EstBytes estimates the search's resident memory: live stamps,
	// the prime table, and (for KoE*) the precomputed matrix.
	EstBytes int64

	// Truncated is set when MaxExpansions fired before the queue drained.
	Truncated bool
}

// Result is the outcome of one search.
type Result struct {
	Routes []Route
	Stats  Stats
}

// HomogeneousRate returns the fraction of returned routes that share their
// homogeneity class (head, tail, KP) with another returned route — the
// metric of Fig. 16 and Fig. 20. A fully diverse result scores 0. The
// pairwise scan is O(k²·|KP|) on at most k ≤ top-k routes, which beats
// materializing map keys per call (this runs per query in the bench
// harness's quality metrics).
func (r *Result) HomogeneousRate() float64 {
	if len(r.Routes) == 0 {
		return 0
	}
	homog := 0
	for i := range r.Routes {
		for j := range r.Routes {
			if i != j && slices.Equal(r.Routes[i].KP, r.Routes[j].KP) {
				homog++
				break
			}
		}
	}
	return float64(homog) / float64(len(r.Routes))
}

// appendKPKey appends the homogeneity-class key of a KP sequence to dst and
// returns the extended buffer. Callers reuse one buffer across checks (the
// pooled scratch bundle owns one for the collector) instead of allocating
// a fresh byte slice per key.
func appendKPKey(dst []byte, kp []model.PartitionID) []byte {
	for _, v := range kp {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

func kpKey(kp []model.PartitionID) string { return string(appendKPKey(nil, kp)) }

// Engine binds a space, its keyword index and the derived distance
// structures, and runs IKRQ queries. Engines are safe for concurrent
// Search and SearchBatch calls; the KoE* distance backend is built lazily
// on first use and shared by every query thereafter.
//
// The engine separates two layers: the immutable index layer (space,
// keyword index, pathfinder, skeleton, KoE* distance backend) and the
// execution layer — a pool of reusable per-query scratch bundles shared by
// route and sequence queries, plus a bounded cache of compiled queries — so
// repeated queries are allocation-light.
type Engine struct {
	s  *model.Space
	x  *keyword.Index
	pf *graph.PathFinder
	sk *graph.Skeleton

	// The KoE* distance backend slots: at most one build of each kind,
	// guarded by distMu; hot-path reads are lock-free atomic loads. When
	// neither is ready, distanceSource picks by venue size — the dense
	// matrix up to DenseStateLimit states, the hierarchical oracle beyond.
	distMu sync.Mutex
	mat    atomic.Pointer[graph.Matrix]
	orc    atomic.Pointer[graph.Oracle]

	qcache *keyword.QueryCache

	// pool holds per-query scratch bundles (execScratch). A route search
	// needs a bundle of allocations per query — the door bitmaps Dn/Df sized
	// to the space, the stamp priority queue, the prime hashtable, the top-k
	// collector, the key-partition set and thousands of stamp structs and
	// sims vectors — and a sequence plan needs a kernel workspace and the
	// overlay's door sets. None of it outlives the query: results copy
	// everything that escapes. The pool keeps the bundles alive between
	// queries, so a loaded engine allocates per request instead of per
	// stamp, and grows to the peak concurrency level.
	pool sync.Pool

	// executions counts query runs that did not come from the result cache,
	// route and sequence alike: the work counter the cached-vs-uncached
	// gates assert against (a hit must leave it unchanged).
	executions atomic.Uint64

	// rcache, when set, is the engine's result cache: complete results
	// keyed by the request fingerprint, with singleflight admission and
	// epoch invalidation (see resultcache.go and DESIGN.md §11). nil (the
	// default) means every query runs.
	rcache atomic.Pointer[ResultCache]

	// popularity, when set, holds a visit-popularity score in [0,1] per
	// partition, used by Options.PopularityWeight.
	popularity []float64

	// Mapping residency, set (before the engine is shared) by the snapshot
	// loader when the index layer is served as views over an mmap'd file:
	// mappedBytes is the mapping's full length, aliasedBytes the portion of
	// the analytic table estimates that lives in the mapping rather than the
	// heap, and mapClose releases the mapping. Heap-built engines leave all
	// three zero.
	mappedBytes  int64
	aliasedBytes int64
	closeMu      sync.Mutex
	mapClose     func() error
}

// DenseStateLimit is the state-count threshold of the automatic KoE*
// backend choice: venues up to this size get the dense all-pairs Matrix
// (exact everywhere, fastest path recovery, Θ(states²) resident — both
// reference malls fit comfortably), larger venues get the hierarchical
// Oracle whose tables stay near-linear. Explicit PrecomputeMatrix and
// PrecomputeOracle calls override the choice in either direction.
const DenseStateLimit = 3072

// defaultQueryCacheCap bounds the engine's compiled-query cache. Compiled
// queries are small (a few candidate sets plus lookup maps), so a few
// hundred cover a realistic hot set of repeated storefront keyword lists.
const defaultQueryCacheCap = 256

// NewEngine builds an engine for the given space and keyword index,
// deriving every distance structure from scratch: the state-graph
// PathFinder, the skeleton lower bounds, and (lazily, on first KoE* query
// or PrecomputeMatrix call) the all-pairs matrix. To skip the derivation —
// e.g. when loading a baked snapshot — use NewEngineFromParts.
func NewEngine(s *model.Space, x *keyword.Index) *Engine {
	return assemble(s, x, graph.NewPathFinder(s), graph.NewSkeleton(s), nil, nil)
}

// NewEngineFromParts assembles an engine from an already-built index layer
// instead of deriving it: the space, keyword index, state-graph pathfinder
// and skeleton are adopted as-is, and mat/orc (optional, may be nil) seed
// the KoE* backend slots so no query ever pays the precomputation. It is
// the assembly path behind snapshot loading and validates that the parts
// belong together.
func NewEngineFromParts(s *model.Space, x *keyword.Index, pf *graph.PathFinder, sk *graph.Skeleton, mat *graph.Matrix, orc *graph.Oracle) (*Engine, error) {
	if s == nil || x == nil || pf == nil || sk == nil {
		return nil, errors.New("search: NewEngineFromParts requires space, index, pathfinder and skeleton")
	}
	if pf.Space() != s {
		return nil, errors.New("search: pathfinder was built for a different space")
	}
	if x.NumPartitions() != s.NumPartitions() {
		return nil, fmt.Errorf("search: keyword index covers %d partitions, space has %d",
			x.NumPartitions(), s.NumPartitions())
	}
	if mat != nil && mat.Finder() != pf {
		return nil, errors.New("search: matrix was computed over a different state graph")
	}
	if orc != nil && orc.Finder() != pf {
		return nil, errors.New("search: oracle was computed over a different state graph")
	}
	e := assemble(s, x, pf, sk, mat, orc)
	return e, nil
}

// assemble wires the execution layer around an index layer.
func assemble(s *model.Space, x *keyword.Index, pf *graph.PathFinder, sk *graph.Skeleton, mat *graph.Matrix, orc *graph.Oracle) *Engine {
	e := &Engine{s: s, x: x, pf: pf, sk: sk}
	if mat != nil {
		e.mat.Store(mat)
	}
	if orc != nil {
		e.orc.Store(orc)
	}
	e.qcache = keyword.NewQueryCache(x, defaultQueryCacheCap)
	e.pool.New = func() any { return new(execScratch) }
	return e
}

// SetMapping hands the engine ownership of the snapshot mapping its index
// layer aliases: mapped is the mapping's length, aliased the table bytes
// served from it, and close releases it. Called once by the snapshot loader
// before the engine is shared; Close tears the mapping down.
func (e *Engine) SetMapping(mapped, aliased int64, close func() error) {
	e.mappedBytes = mapped
	e.aliasedBytes = aliased
	e.closeMu.Lock()
	e.mapClose = close
	e.closeMu.Unlock()
}

// Close releases the snapshot mapping backing the engine's index layer, if
// any. It is idempotent and a no-op for heap-built engines. The caller must
// guarantee no query is in flight and none will follow — the serving
// registry closes an engine only once its reference count has drained.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	close := e.mapClose
	e.mapClose = nil
	e.closeMu.Unlock()
	if close == nil {
		return nil
	}
	return close()
}

// Executions returns how many route searches and sequence plans the engine
// has run. Queries answered from the result cache do not count — a hit
// performs zero work.
func (e *Engine) Executions() uint64 { return e.executions.Load() }

// QueryCache exposes the engine's compiled-query cache (for stats and
// tests).
func (e *Engine) QueryCache() *keyword.QueryCache { return e.qcache }

// EnableResultCache attaches a bounded result cache to the engine and
// returns it: subsequent Search/SearchContext/SearchBatch calls serve
// repeated queries from the cache instead of re-running the searcher, with
// concurrent identical misses collapsed onto one execution. Cached results
// are shared by reference, so callers must treat every returned Result as
// read-only (the library itself never mutates one). Call once at engine
// setup; the serving layer enables it per venue from the ikrqd cache flags.
func (e *Engine) EnableResultCache(opts CacheOptions) *ResultCache {
	c := NewResultCache(opts)
	e.rcache.Store(c)
	return c
}

// ResultCache returns the engine's result cache, or nil when caching is
// disabled.
func (e *Engine) ResultCache() *ResultCache { return e.rcache.Load() }

// SetPopularity attaches per-partition popularity scores (clamped to
// [0,1]); missing entries default to 0. Popularity affects ranking only
// when a query sets Options.PopularityWeight. Call before issuing queries;
// the engine copies the data. Changing popularity invalidates the result
// cache — PopularityWeight queries fingerprint identically across the
// change, so their cached scores would otherwise go stale.
func (e *Engine) SetPopularity(pop map[model.PartitionID]float64) {
	e.popularity = make([]float64, e.s.NumPartitions())
	for v, p := range pop {
		if int(v) < 0 || int(v) >= len(e.popularity) {
			continue
		}
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		e.popularity[v] = p
	}
	if c := e.rcache.Load(); c != nil {
		c.Invalidate()
	}
}

// Space returns the engine's indoor space.
func (e *Engine) Space() *model.Space { return e.s }

// Keywords returns the engine's keyword index.
func (e *Engine) Keywords() *keyword.Index { return e.x }

// PathFinder exposes the engine's state-graph pathfinder (used by the
// query generator and the examples).
func (e *Engine) PathFinder() *graph.PathFinder { return e.pf }

// Skeleton exposes the engine's lower-bound distance structure.
func (e *Engine) Skeleton() *graph.Skeleton { return e.sk }

// Precompute builds the KoE* distance backend eagerly — the dense matrix
// or the hierarchical oracle, chosen by venue size against DenseStateLimit
// — and returns it. By default the backend is built lazily on the first
// KoE* query, which keeps engines cheap for workloads that never run KoE*
// but makes that first query pay the precomputation; services bake it at
// start-up (or at snapshot time, see internal/snapshot) so serving latency
// never includes index construction.
func (e *Engine) Precompute() graph.DistanceSource { return e.distanceSource() }

// PrecomputeMatrix forces the dense all-pairs matrix eagerly and returns
// it, regardless of venue size; most callers want Precompute (size-aware)
// instead.
func (e *Engine) PrecomputeMatrix() *graph.Matrix {
	if m := e.mat.Load(); m != nil {
		return m
	}
	e.distMu.Lock()
	defer e.distMu.Unlock()
	if m := e.mat.Load(); m != nil {
		return m
	}
	m := graph.NewMatrix(e.pf)
	e.mat.Store(m)
	return m
}

// PrecomputeOracle forces the hierarchical oracle eagerly and returns it,
// regardless of venue size (the equality gate tests force it on small
// malls); most callers want Precompute.
func (e *Engine) PrecomputeOracle() *graph.Oracle {
	if o := e.orc.Load(); o != nil {
		return o
	}
	e.distMu.Lock()
	defer e.distMu.Unlock()
	if o := e.orc.Load(); o != nil {
		return o
	}
	o := graph.NewOracle(e.pf)
	e.orc.Store(o)
	return o
}

// MatrixIfReady returns the dense matrix if it has already been built (or
// was supplied via NewEngineFromParts), without triggering the computation.
// Snapshot writing uses it to persist the matrix exactly when the engine
// has one.
func (e *Engine) MatrixIfReady() *graph.Matrix { return e.mat.Load() }

// OracleIfReady is MatrixIfReady for the hierarchical oracle.
func (e *Engine) OracleIfReady() *graph.Oracle { return e.orc.Load() }

// DistanceSourceIfReady returns whichever KoE* backend is already built
// (the dense matrix wins when both are), or nil. Observability endpoints
// use it to report resident memory without forcing a build.
func (e *Engine) DistanceSourceIfReady() graph.DistanceSource {
	// Note the typed-nil guard: returning e.mat.Load() directly would wrap
	// a nil *Matrix in a non-nil interface.
	if m := e.mat.Load(); m != nil {
		return m
	}
	if o := e.orc.Load(); o != nil {
		return o
	}
	return nil
}

// MemStats is the per-venue resident memory breakdown the serving layer
// reports on GET /v1/venues and /debug/vars: the always-resident derived
// structures (state graph, skeleton, keyword index) plus whichever KoE*
// distance backend is built. All figures are analytic estimates of the
// dominant tables, not heap measurements — good to a few percent, stable
// across runs, and free to compute.
type MemStats struct {
	GraphBytes    int64 `json:"graph_bytes"`
	SkeletonBytes int64 `json:"skeleton_bytes"`
	IndexBytes    int64 `json:"index_bytes"`

	// Backend is the DistanceSource kind ("matrix", "oracle") or "" while
	// no KoE* backend has been built; BackendBytes is 0 in that case.
	Backend      string `json:"backend,omitempty"`
	BackendBytes int64  `json:"backend_bytes"`

	// HeapBytes and MappedBytes split the total by residency: heap-decoded
	// tables vs views over an mmap'd snapshot (page-cache shared, reclaimable
	// under pressure). Heap-built engines report everything under HeapBytes.
	HeapBytes   int64 `json:"heap_bytes"`
	MappedBytes int64 `json:"mapped_bytes"`

	TotalBytes int64 `json:"total_bytes"`
}

// MemStats reports the engine's resident memory breakdown without forcing
// any backend build.
func (e *Engine) MemStats() MemStats {
	ms := MemStats{
		GraphBytes:    e.pf.Bytes(),
		SkeletonBytes: e.sk.Bytes(),
		IndexBytes:    e.x.Bytes(),
	}
	if ds := e.DistanceSourceIfReady(); ds != nil {
		ms.Backend = ds.Kind()
		ms.BackendBytes = ds.Bytes()
	}
	sum := ms.GraphBytes + ms.SkeletonBytes + ms.IndexBytes + ms.BackendBytes
	ms.MappedBytes = e.mappedBytes
	ms.HeapBytes = max(0, sum-e.aliasedBytes)
	ms.TotalBytes = ms.HeapBytes + ms.MappedBytes
	return ms
}

// distanceSource returns the engine's KoE* backend, building the
// size-appropriate one on first demand. An already-built backend of either
// kind is used as-is (the dense matrix preferred when both exist).
func (e *Engine) distanceSource() graph.DistanceSource {
	if m := e.mat.Load(); m != nil {
		return m
	}
	if o := e.orc.Load(); o != nil {
		return o
	}
	e.distMu.Lock()
	defer e.distMu.Unlock()
	if m := e.mat.Load(); m != nil {
		return m
	}
	if o := e.orc.Load(); o != nil {
		return o
	}
	if e.pf.NumStates() <= DenseStateLimit {
		m := graph.NewMatrix(e.pf)
		e.mat.Store(m)
		return m
	}
	o := graph.NewOracle(e.pf)
	e.orc.Store(o)
	return o
}

// Validate reports the first problem with a request, or nil.
func (e *Engine) Validate(req Request) error {
	return e.validateQuery(req.Ps, req.Pt, req.Delta, req.K, req.Alpha, req.Tau, req.Conditions)
}

// validateQuery checks what route and sequence requests share: k, Δ, α and
// τ in range, both points inside the space, and the overlay's doors within
// it.
func (e *Engine) validateQuery(ps, pt geom.Point, delta float64, k int, alpha, tau float64, cond *model.Conditions) error {
	if k < 1 {
		return errors.New("search: k must be ≥ 1")
	}
	if delta <= 0 {
		return errors.New("search: distance constraint Δ must be positive")
	}
	if alpha < 0 || alpha > 1 {
		return errors.New("search: α must be in [0,1]")
	}
	if tau < 0 || tau > 1 {
		return errors.New("search: τ must be in [0,1]")
	}
	if e.s.HostPartition(ps) == model.NoPartition {
		return fmt.Errorf("search: start point %v is outside every partition", ps)
	}
	if e.s.HostPartition(pt) == model.NoPartition {
		return fmt.Errorf("search: terminal point %v is outside every partition", pt)
	}
	if err := cond.Validate(e.s.NumDoors()); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	return nil
}

// validateOptions reports the first problem with an option combination.
func validateOptions(opt Options) error {
	if opt.Algorithm == KoE && opt.DisablePrime {
		return errors.New("search: KoE is formulated on prime routes; DisablePrime does not apply")
	}
	if opt.Precompute && opt.Algorithm != KoE {
		return errors.New("search: Precompute (KoE*) requires the KoE algorithm")
	}
	if opt.SoftDeltaSlack < 0 {
		return errors.New("search: SoftDeltaSlack must be ≥ 0")
	}
	if opt.PopularityWeight < 0 {
		return errors.New("search: PopularityWeight must be ≥ 0")
	}
	return nil
}

// validate combines request and option validation.
func (e *Engine) validate(req Request, opt Options) error {
	if err := e.Validate(req); err != nil {
		return err
	}
	return validateOptions(opt)
}

// Search runs one IKRQ query with the given options.
func (e *Engine) Search(req Request, opt Options) (*Result, error) {
	return e.SearchContext(context.Background(), req, opt)
}

// SearchContext runs one IKRQ query under a context on pooled scratch;
// results and work counters are identical to the same query on a brand-new
// engine, whatever the scratch ran before. The searcher polls ctx between
// expansion batches (every ctxPollEvery pops, so a poll costs nothing
// measurable against the Dijkstras in between) and aborts with ctx.Err()
// once the context is cancelled or past its deadline. An aborted query
// returns (nil, ctx.Err()): no partial Result escapes, and the scratch
// bundle goes back to the pool exactly as on success. The one
// non-interruptible stretch is the lazy KoE* backend build a first
// Precompute query may trigger; services that care call Engine.Precompute
// at start-up. Network servers use this entry point to bound per-request
// latency and to stop working for disconnected clients.
//
// On a cache-enabled engine (EnableResultCache) the query is keyed by
// fingerprintQuery: a hit returns the stored result with zero searcher
// work, concurrent identical misses collapse onto one execution, and only a
// genuine miss runs the searcher. Cache-served results are shared and must
// be treated as read-only.
func (e *Engine) SearchContext(ctx context.Context, req Request, opt Options) (*Result, error) {
	if err := e.validate(req, opt); err != nil {
		return nil, err
	}
	return execute(ctx, e,
		func() string { return fingerprintQuery(&req, opt) },
		func(sc *execScratch) (*Result, error) { return e.searchUncached(ctx, sc, req, opt) })
}

// score computes ψ (Equation 1) from a relevance and a route distance.
func score(alpha, rho, maxRho, dist, delta float64) float64 {
	return alpha*rho/maxRho + (1-alpha)*(delta-dist)/delta
}

// psiUpperBound is the Pruning Rule 4 bound: keyword score overestimated to
// 1, spatial score from the lower-bounded remaining distance.
func psiUpperBound(alpha, distLB, delta float64) float64 {
	return alpha + (1-alpha)*(1-distLB/delta)
}
