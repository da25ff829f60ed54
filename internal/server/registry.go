// Package server is the network serving layer of ikrq: a venue registry
// that keeps baked engine snapshots resident with refcounting and an LRU
// cap, and an HTTP daemon (cmd/ikrqd) that answers IKRQ queries over it
// with admission control, per-request deadlines and graceful drain. See
// DESIGN.md §9.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ikrq/internal/keyword"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
)

// ErrUnknownVenue is returned by Acquire for a name never Added; the HTTP
// layer maps it to 404.
var ErrUnknownVenue = errors.New("server: unknown venue")

// VenueConfig names one servable snapshot.
type VenueConfig struct {
	// Name is the registry key, addressed as /v1/venues/{name}/query.
	Name string
	// Path is the snapshot file baked by `ikrqgen -snapshot`.
	Path string
	// Warm forces the KoE* distance backend (Engine.Precompute) eagerly on
	// every load of this venue, so no serving query ever pays its build.
	// Snapshots baked by `ikrqgen -snapshot` carry the backend already and
	// make Warm a no-op.
	Warm bool
}

// Registry maps venue names to lazily loaded, refcounted engines.
//
// A venue's engine is loaded from its snapshot on first Acquire and stays
// resident while queries reference it. When MaxResident is set, loading a
// venue past the cap evicts the least-recently-used idle venue (refcount
// zero): the registry closes its engine — releasing any snapshot mapping
// deterministically — and drops the pointer. Only idle venues are victims,
// so eviction never yanks an engine out from under a running query. If
// every resident venue is busy the registry overshoots temporarily and
// re-checks the cap as handles are released.
type Registry struct {
	mu       sync.Mutex
	venues   map[string]*venue
	names    []string // insertion order, for stable listings
	resident int
	clock    int64

	maxResident int
	evictions   atomic.Int64

	// cacheOpts, when set, enables a per-venue result cache on every
	// engine the registry loads (see search.ResultCache). nil keeps
	// caching off — every query runs the searcher.
	cacheOpts *search.CacheOptions

	// loader builds an engine for a venue; the default reads the snapshot
	// file. Tests inject in-memory loaders via SetLoader.
	loader func(VenueConfig) (*search.Engine, error)
}

// venue is one registry entry. engine, refs, retired, lastUse and loadTime
// are guarded by the registry mutex; loadMu serializes the (slow,
// lock-free) snapshot load so concurrent first queries load once. Swap
// rewrites cfg under both locks, so either one suffices to read it. name is
// cfg.Name, fixed at Add, which Handle.Venue reads on the query path with
// neither lock held.
type venue struct {
	name string
	cfg  VenueConfig

	loadMu sync.Mutex

	engine   *search.Engine
	refs     int
	lastUse  int64
	loads    int64
	loadTime time.Duration

	// retired counts in-flight handles per swapped-out engine. Swap moves
	// refs here when it replaces a referenced engine; the last Release of
	// each retired engine closes it deterministically, so a hot swap never
	// leaves an old mapping to a GC finalizer.
	retired map[*search.Engine]int

	queries atomic.Uint64
}

// NewRegistry returns an empty registry. maxResident caps the number of
// simultaneously loaded engines; 0 means unlimited.
func NewRegistry(maxResident int) *Registry {
	return &Registry{
		venues:      make(map[string]*venue),
		maxResident: maxResident,
		loader:      loadSnapshotFile,
	}
}

func loadSnapshotFile(cfg VenueConfig) (*search.Engine, error) {
	// OpenEngine serves snapshots as views over an mmap where the
	// platform supports it — cold start touches only the pages it reads and
	// co-resident loads of the same bake share the page cache. The registry
	// owns the mapping lifetime: engines are Closed on eviction and swap.
	return snapshot.OpenEngine(cfg.Path)
}

// SetLoader replaces the snapshot-file loader (test seam). Call before any
// Acquire.
func (r *Registry) SetLoader(fn func(VenueConfig) (*search.Engine, error)) { r.loader = fn }

// EnableResultCache makes every engine the registry subsequently loads
// carry a bounded result cache with the given options (already-resident
// engines are unaffected; call before serving). cmd/ikrqd maps the
// -cache-entries / -cache-bytes / -cache-off flags onto this.
func (r *Registry) EnableResultCache(opts search.CacheOptions) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cacheOpts = &opts
}

// resultCacheOpts snapshots the cache configuration.
func (r *Registry) resultCacheOpts() *search.CacheOptions {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheOpts
}

// InvalidateResults bumps the invalidation epoch of a venue's result cache,
// logically emptying it in O(1). It is the registry-level seam every
// engine-state change must call through — a hot snapshot swap or a future
// delta patch — so stale routes can never be served across the change. A
// venue that is not resident, or that has no cache, is a no-op: its next
// load starts with an empty cache anyway.
func (r *Registry) InvalidateResults(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.venues[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVenue, name)
	}
	if v.engine != nil {
		if c := v.engine.ResultCache(); c != nil {
			c.Invalidate()
		}
	}
	return nil
}

// Add registers a venue. Names must be unique and addressable: the venue
// is served at /v1/venues/{name}/query, where the router matches one
// clean path segment, so a name is restricted to letters, digits, '.',
// '_' and '-' — anything else (slashes, percent signs, spaces) would
// register fine but 404 on every query, a silently dead venue.
func (r *Registry) Add(cfg VenueConfig) error {
	if err := validVenueName(cfg.Name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.venues[cfg.Name]; dup {
		return fmt.Errorf("server: duplicate venue %q", cfg.Name)
	}
	r.venues[cfg.Name] = &venue{name: cfg.Name, cfg: cfg}
	r.names = append(r.names, cfg.Name)
	return nil
}

// validVenueName enforces the addressable-name restriction of Add.
func validVenueName(name string) error {
	if name == "" {
		return errors.New("server: venue name must be non-empty")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("server: venue name %q contains %q; use letters, digits, '.', '_', '-'", name, c)
		}
	}
	return nil
}

// Names returns the registered venue names in insertion order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Len returns the number of registered venues.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.names)
}

// Evictions returns how many engines the LRU cap has evicted.
func (r *Registry) Evictions() int64 { return r.evictions.Load() }

// Handle is a counted reference to a loaded engine. Callers must Release
// exactly once when the query finishes; the engine stays valid until then
// even if the registry evicts the venue meanwhile.
type Handle struct {
	r        *Registry
	v        *venue
	e        *search.Engine
	released bool
}

// Engine returns the referenced engine.
func (h *Handle) Engine() *search.Engine { return h.e }

// Venue returns the venue name the handle references.
func (h *Handle) Venue() string { return h.v.name }

// CountQuery attributes one served query to the venue (for /v1/venues).
func (h *Handle) CountQuery() { h.v.queries.Add(1) }

// Release drops the reference. Idempotent per handle; releasing re-checks
// the LRU cap so an overshoot caused by busy venues shrinks as they idle.
// Releasing the last handle of an engine a Swap retired closes that engine
// (and its snapshot mapping) deterministically.
func (h *Handle) Release() {
	if h.released {
		return
	}
	h.released = true
	var closeRetired bool
	h.r.mu.Lock()
	if h.v.engine == h.e {
		h.v.refs--
	} else {
		// The engine was swapped out while this handle was in flight; its
		// drain count lives in the retired ledger.
		if n := h.v.retired[h.e] - 1; n > 0 {
			h.v.retired[h.e] = n
		} else {
			delete(h.v.retired, h.e)
			closeRetired = true
		}
	}
	h.r.evictLocked(nil)
	h.r.mu.Unlock()
	if closeRetired {
		_ = h.e.Close()
	}
}

// Acquire returns a counted handle to the venue's engine, loading the
// snapshot on first use (and after an eviction). Concurrent Acquires of an
// unloaded venue load once; Acquires of distinct venues load in parallel.
func (r *Registry) Acquire(name string) (*Handle, error) {
	r.mu.Lock()
	v, ok := r.venues[name]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownVenue, name)
	}
	if h := r.tryRefLocked(v); h != nil {
		r.mu.Unlock()
		return h, nil
	}
	r.mu.Unlock()

	v.loadMu.Lock()
	defer v.loadMu.Unlock()
	r.mu.Lock()
	if h := r.tryRefLocked(v); h != nil { // a racing loader won
		r.mu.Unlock()
		return h, nil
	}
	r.mu.Unlock()

	e, took, err := r.load(v.cfg)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	v.engine = e
	v.refs++
	v.lastUse = r.tick()
	v.loads++
	v.loadTime = took
	r.resident++
	r.evictLocked(v)
	r.mu.Unlock()
	return &Handle{r: r, v: v, e: e}, nil
}

// load builds a venue's engine through the loader, forces its KoE* backend
// when the venue is Warm, and attaches the registry's result cache — the one
// load path of Acquire and Swap. took is the whole load's wall time.
func (r *Registry) load(cfg VenueConfig) (e *search.Engine, took time.Duration, err error) {
	t0 := time.Now()
	e, err = r.loader(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("server: venue %q: %w", cfg.Name, err)
	}
	if cfg.Warm {
		e.Precompute()
	}
	if opts := r.resultCacheOpts(); opts != nil {
		e.EnableResultCache(*opts)
	}
	return e, time.Since(t0), nil
}

// tryRefLocked references v's engine if resident. Caller holds r.mu.
func (r *Registry) tryRefLocked(v *venue) *Handle {
	if v.engine == nil {
		return nil
	}
	v.refs++
	v.lastUse = r.tick()
	return &Handle{r: r, v: v, e: v.engine}
}

func (r *Registry) tick() int64 {
	r.clock++
	return r.clock
}

// evictLocked drops least-recently-used idle engines until the cap holds.
// keep (the venue just loaded) is never evicted. Caller holds r.mu.
func (r *Registry) evictLocked(keep *venue) {
	if r.maxResident <= 0 {
		return
	}
	for r.resident > r.maxResident {
		var victim *venue
		for _, v := range r.venues {
			if v.engine == nil || v.refs > 0 || v == keep {
				continue
			}
			if victim == nil || v.lastUse < victim.lastUse {
				victim = v
			}
		}
		if victim == nil {
			return // every resident venue is busy; retried on Release
		}
		// Victims have refs == 0, so no query references the engine and its
		// snapshot mapping (if any) can be released right away.
		_ = victim.engine.Close()
		victim.engine = nil
		r.resident--
		r.evictions.Add(1)
	}
}

// Swap atomically replaces a venue's resident engine with one freshly
// loaded from path (or from the venue's current path when path is empty) —
// the hot-reload behind POST /v1/venues/{venue}/reload. In-flight queries
// drain on the engine they acquired; queries arriving after the swap see
// the new one. The old engine's result cache is invalidated before it goes,
// and the old engine is closed deterministically: immediately when idle,
// otherwise by the last Release of the handles still referencing it (their
// count moves to the venue's retired ledger). A venue that was not resident
// becomes resident, subject to the LRU cap.
func (r *Registry) Swap(name, path string) error {
	r.mu.Lock()
	v, ok := r.venues[name]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVenue, name)
	}

	// loadMu keeps the slow load out of the registry lock and serializes
	// concurrent swaps (and swap-vs-first-Acquire loads) of one venue.
	v.loadMu.Lock()
	defer v.loadMu.Unlock()
	cfg := v.cfg
	if path != "" {
		cfg.Path = path
	}
	e, took, err := r.load(cfg)
	if err != nil {
		return err
	}

	r.mu.Lock()
	old := v.engine
	if old != nil {
		if c := old.ResultCache(); c != nil {
			c.Invalidate()
		}
	}
	v.cfg = cfg
	v.engine = e
	v.lastUse = r.tick()
	v.loads++
	v.loadTime = took
	closeOld := false
	switch {
	case old == nil:
		r.resident++
		r.evictLocked(v)
	case old == e:
		// A loader (test seams) may hand back the engine already installed;
		// there is nothing to retire and closing would kill the live engine.
	case v.refs == 0:
		closeOld = true
	default:
		// Handles still reference the old engine: move their count to the
		// retired ledger so the last Release closes it.
		if v.retired == nil {
			v.retired = make(map[*search.Engine]int)
		}
		v.retired[old] += v.refs
		v.refs = 0
	}
	r.mu.Unlock()
	if closeOld {
		_ = old.Close()
	}
	return nil
}

// WarmAll loads every registered venue eagerly (startup warmup). With an
// LRU cap smaller than the venue count only the last MaxResident venues
// stay resident; the call still validates that every snapshot loads.
func (r *Registry) WarmAll() error {
	for _, name := range r.Names() {
		h, err := r.Acquire(name)
		if err != nil {
			return err
		}
		h.Release()
	}
	return nil
}

// Status reports every venue for GET /v1/venues, sorted by name.
func (r *Registry) Status() []VenueStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]VenueStatus, 0, len(r.names))
	for _, name := range r.names {
		v := r.venues[name]
		inFlight := v.refs
		for _, n := range v.retired {
			inFlight += n // queries still draining on swapped-out engines
		}
		st := VenueStatus{
			Name:           v.cfg.Name,
			Path:           v.cfg.Path,
			Loaded:         v.engine != nil,
			Warm:           v.cfg.Warm,
			InFlight:       inFlight,
			Loads:          v.loads,
			Queries:        v.queries.Load(),
			LastLoadMillis: durationMillis(v.loadTime),
		}
		if v.engine != nil {
			ms := v.engine.MemStats()
			st.Backend = ms.Backend
			st.ResidentBytes = ms.TotalBytes
			st.MappedBytes = ms.MappedBytes
			st.HeapBytes = ms.HeapBytes
			if c := v.engine.ResultCache(); c != nil {
				cs := c.Stats()
				st.ResultCache = &cs
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// memVars renders the per-venue resident memory section of /debug/vars:
// search.MemStats per loaded venue plus the summed resident total. Evicted
// and never-loaded venues are omitted — they hold no engine memory.
func (r *Registry) memVars() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	venues := make(map[string]any)
	var total int64
	for _, name := range r.names {
		v := r.venues[name]
		if v.engine == nil {
			continue
		}
		ms := v.engine.MemStats()
		total += ms.TotalBytes
		venues[name] = ms
	}
	return map[string]any{
		"resident_bytes_total": total,
		"venues":               venues,
	}
}

// queryCacheStats sums the compiled-query cache counters over resident
// engines.
func (r *Registry) queryCacheStats() keyword.CacheStats {
	var out keyword.CacheStats
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.venues {
		if v.engine == nil {
			continue
		}
		out = out.Merge(v.engine.QueryCache().Stats())
	}
	return out
}

// resultCacheStats sums the result-cache counters over resident engines
// that have one.
func (r *Registry) resultCacheStats() search.CacheStats {
	var out search.CacheStats
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.venues {
		if v.engine == nil {
			continue
		}
		if c := v.engine.ResultCache(); c != nil {
			out = out.Merge(c.Stats())
		}
	}
	return out
}
