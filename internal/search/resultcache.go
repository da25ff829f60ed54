package search

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ResultCache is a per-engine, bounded, concurrency-safe cache of complete
// search results keyed by the request fingerprint (fingerprint.go).
// Production traffic is Zipfian — the same (venue, start, terminal,
// keywords, k, conditions) queries repeat constantly — and a repeated
// query's result is fully determined by the fingerprint against one engine
// state, so a hit can skip the entire searcher.
//
// Three mechanisms keep the cache transparent and bounded (DESIGN.md §11):
//
//   - LRU + byte budget. Entries are evicted least-recently-used past
//     MaxEntries, and past MaxBytes of accounted cost (key bytes plus the
//     result's route payloads), so one venue's cache can never grow beyond
//     a fixed memory envelope whatever the traffic looks like.
//
//   - Singleflight admission. Concurrent identical misses collapse onto one
//     searcher execution: the first becomes the leader, the rest wait for
//     its result. A leader cancelled by its own context does not poison the
//     followers — they observe the context-shaped failure and retry, one of
//     them becoming the new leader — so a client disconnect never fails
//     other clients' identical in-flight queries.
//
//   - Invalidation epoch. Invalidate() bumps a monotonically increasing
//     epoch; every stored entry is stamped with the epoch current when its
//     search *began*, and lookups only serve entries from the current
//     epoch. Any engine-level change (snapshot swap, popularity update,
//     future delta patch) therefore logically empties the cache in O(1),
//     and a search that raced the change can never install a stale result.
//     Stale entries are physically dropped lazily — on lookup and by LRU
//     pressure — which keeps correctness independent of eviction order.
//
// Cached results are returned by reference: hit results alias the stored
// Result, which is safe because results are immutable — the searcher copies
// everything out of its scratch into fresh slices and nothing in the
// library writes to a returned Result. Callers that enable the cache must
// uphold the same contract and treat results as read-only.
type ResultCache struct {
	maxEntries int
	maxBytes   int64

	epoch atomic.Uint64

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	collapsed     atomic.Uint64
	invalidations atomic.Uint64

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	m       map[string]*list.Element
	flights map[string]*cacheFlight
	bytes   int64
}

// CacheOptions bounds a ResultCache. The zero value of either field selects
// its default; use a negative MaxBytes to disable the byte budget and rely
// on MaxEntries alone.
type CacheOptions struct {
	// MaxEntries caps the number of cached results (default
	// DefaultCacheEntries).
	MaxEntries int
	// MaxBytes caps the accounted resident cost of cached results (default
	// DefaultCacheBytes; negative: unbounded).
	MaxBytes int64
}

// Cache bound defaults: a hot set of a few thousand distinct queries at a
// few KiB of routes each comfortably fits tens of MiB, far below any single
// venue's index footprint.
const (
	DefaultCacheEntries = 4096
	DefaultCacheBytes   = 64 << 20
)

func (o CacheOptions) withDefaults() CacheOptions {
	if o.MaxEntries <= 0 {
		o.MaxEntries = DefaultCacheEntries
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = DefaultCacheBytes
	}
	return o
}

// CacheStats is a single consistent snapshot of a cache's counters. All
// event counters are monotonic uint64s for the lifetime of the cache;
// Entries, Bytes and Epoch are point-in-time gauges. The JSON shape is what
// /debug/vars and GET /v1/venues serve.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Collapsed     uint64 `json:"collapsed"`
	Invalidations uint64 `json:"invalidations"`
	Epoch         uint64 `json:"epoch"`
	Entries       uint64 `json:"entries"`
	Bytes         uint64 `json:"resident_bytes"`
}

// Merge accumulates another snapshot into s for fleet-level aggregation
// (the /debug/vars totals over resident venues). Gauges sum too: the
// aggregate Bytes/Entries are the fleet totals, and the aggregate Epoch is
// only meaningful as "total invalidation generations across venues".
func (s CacheStats) Merge(o CacheStats) CacheStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Collapsed += o.Collapsed
	s.Invalidations += o.Invalidations
	s.Epoch += o.Epoch
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	return s
}

// cacheable is what the cache stores: any complete, immutable result kind
// that can account its resident cost. Route results (*Result) and sequence
// results (*SequenceResult) both implement it, sharing one LRU, byte budget
// and invalidation epoch per engine — the fingerprint version byte keeps
// their key spaces disjoint.
type cacheable interface {
	cacheCost(key string) int64
}

// resultEntry is one cached result.
type resultEntry struct {
	key   string
	res   cacheable
	cost  int64
	epoch uint64
}

// cacheFlight is one in-flight singleflight execution. done is closed after
// res/err/retryable are final.
type cacheFlight struct {
	done      chan struct{}
	res       cacheable
	err       error
	retryable bool // the leader aborted on its own context; waiters retry
}

// NewResultCache returns an empty cache with the given bounds.
func NewResultCache(opts CacheOptions) *ResultCache {
	opts = opts.withDefaults()
	return &ResultCache{
		maxEntries: opts.MaxEntries,
		maxBytes:   opts.MaxBytes,
		ll:         list.New(),
		m:          make(map[string]*list.Element),
		flights:    make(map[string]*cacheFlight),
	}
}

// Invalidate bumps the epoch, logically emptying the cache in O(1): no
// entry stored before the call can be served after it. Entries from past
// epochs are physically reclaimed lazily, on lookup and by LRU pressure.
func (c *ResultCache) Invalidate() {
	c.epoch.Add(1)
	c.invalidations.Add(1)
}

// Epoch returns the current invalidation epoch.
func (c *ResultCache) Epoch() uint64 { return c.epoch.Load() }

// Stats returns a snapshot of the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := uint64(c.ll.Len()), uint64(c.bytes)
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Collapsed:     c.collapsed.Load(),
		Invalidations: c.invalidations.Load(),
		Epoch:         c.epoch.Load(),
		Entries:       entries,
		Bytes:         bytes,
	}
}

// Len returns the number of physically resident entries (including any not
// yet reclaimed from past epochs).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// doAny is the cache protocol behind every query kind (see execute): serve
// a hit, join an in-flight identical miss, or lead one execution via run
// and install its result. The returned cached flag is false exactly for the
// leader that executed run; hits and collapsed followers get the stored
// result itself.
func (c *ResultCache) doAny(ctx context.Context, key string, run func() (cacheable, error)) (res cacheable, cached bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.m[key]; ok {
			ent := el.Value.(*resultEntry)
			if ent.epoch == c.epoch.Load() {
				c.ll.MoveToFront(el)
				c.mu.Unlock()
				c.hits.Add(1)
				return ent.res, true, nil
			}
			c.removeLocked(el, ent) // stale epoch: reclaim, fall through to miss
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			c.collapsed.Add(1)
			select {
			case <-f.done:
				if f.retryable {
					continue // the leader was cancelled; race to lead a rerun
				}
				if f.err != nil {
					return nil, false, f.err
				}
				return f.res, true, nil
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		f := &cacheFlight{done: make(chan struct{})}
		c.flights[key] = f
		// The entry is stamped with the epoch at search *start*: if the
		// engine is invalidated while the search runs, the stamp no longer
		// matches at store time and the stale result is never installed.
		epoch := c.epoch.Load()
		c.mu.Unlock()
		c.misses.Add(1)

		res, err = run()

		if err == nil {
			c.store(key, res, epoch)
		}
		f.res, f.err = res, err
		// A context-shaped error can only be the leader's own context (the
		// followers' contexts never reach run), so followers retry rather
		// than inherit a cancellation that was not theirs.
		f.retryable = err != nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return res, false, err
	}
}

// store installs a result computed under the given epoch stamp and applies
// the LRU/byte bounds.
func (c *ResultCache) store(key string, res cacheable, epoch uint64) {
	if epoch != c.epoch.Load() {
		return // invalidated while the search ran; never install stale state
	}
	ent := &resultEntry{key: key, res: res, cost: res.cacheCost(key), epoch: epoch}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		// Possible when an entry went stale and two epochs' leaders raced;
		// keep the newer result.
		c.removeLocked(el, el.Value.(*resultEntry))
	}
	c.m[key] = c.ll.PushFront(ent)
	c.bytes += ent.cost
	for c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest, oldest.Value.(*resultEntry))
		c.evictions.Add(1)
	}
}

// removeLocked unlinks an entry. Caller holds c.mu.
func (c *ResultCache) removeLocked(el *list.Element, ent *resultEntry) {
	c.ll.Remove(el)
	delete(c.m, ent.key)
	c.bytes -= ent.cost
}

// Cost-accounting overheads shared by the cacheable kinds: entry struct +
// list element + map bucket share, and per-route struct + slice headers.
const (
	cacheEntryOverhead = 160
	cacheRouteOverhead = 112
)

// entryCost accounts one route-result entry's resident bytes: the key, the
// container bookkeeping, and the result's route payloads (4-byte
// door/partition IDs, 8-byte sims). An analytic estimate in the style of
// search.MemStats — stable, cheap, good to a few percent.
func entryCost(key string, res *Result) int64 {
	b := int64(len(key)) + cacheEntryOverhead
	for i := range res.Routes {
		r := &res.Routes[i]
		b += cacheRouteOverhead +
			int64(4*(len(r.Doors)+len(r.Entered)+len(r.KP))) +
			int64(8*len(r.Sims))
	}
	return b
}

func (res *Result) cacheCost(key string) int64 { return entryCost(key, res) }

// cacheCost accounts a sequence result like entryCost does a route result;
// the per-leg sims vectors dominate alongside the door sequences.
func (res *SequenceResult) cacheCost(key string) int64 {
	b := int64(len(key)) + cacheEntryOverhead
	for i := range res.Routes {
		r := &res.Routes[i]
		b += cacheRouteOverhead +
			int64(4*(len(r.Doors)+len(r.Entered)+len(r.Waypoints))) +
			int64(8*len(r.LegRho))
		for _, s := range r.LegSims {
			b += 24 + int64(8*len(s))
		}
	}
	return b
}
