package keyword

import (
	"container/list"
	"math"
	"strconv"
	"strings"
	"sync"
)

// QueryCache is a bounded, concurrency-safe LRU cache of compiled queries.
// CompileQuery counts each keyword's candidates over T2I/I2T and builds the
// query's dense match and key-partition tables, microseconds per query; a
// service answering repeated requests (the same storefront keywords with
// the same τ) shares that work, and the tables, across calls. Compiled
// queries are immutable after construction — the search only reads them
// and writes into caller-owned sims vectors — so one *Query may safely
// back any number of concurrent searches.
//
// The cache key is the exact keyword sequence plus the bit pattern of τ.
// Keyword order is part of the key on purpose: Query.Sets and the sims
// vectors of results are positionally aligned with QW, so two orderings of
// the same words compile to distinct (if equally scored) queries.
type QueryCache struct {
	x        *Index
	capacity int

	mu sync.Mutex
	ll *list.List // front = most recently used
	m  map[string]*list.Element

	hits, misses uint64
}

type cacheEntry struct {
	key string
	q   *Query
}

// NewQueryCache returns a cache over the given index holding at most
// capacity compiled queries; capacity < 1 is raised to 1.
func NewQueryCache(x *Index, capacity int) *QueryCache {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryCache{
		x:        x,
		capacity: capacity,
		ll:       list.New(),
		m:        make(map[string]*list.Element, capacity),
	}
}

// cacheKey builds the lookup key for a keyword list and threshold. Each
// keyword is length-prefixed, which keeps distinct lists distinct for any
// keyword content (including separators and NUL bytes — nothing upstream
// restricts what a request keyword may contain), and τ is keyed by its
// exact bit pattern so 0.2 and 0.2000001 never alias.
func cacheKey(qw []string, tau float64) string {
	var b strings.Builder
	size := 17
	for _, w := range qw {
		size += len(w) + 4
	}
	b.Grow(size)
	for _, w := range qw {
		b.WriteString(strconv.Itoa(len(w)))
		b.WriteByte(':')
		b.WriteString(w)
	}
	b.WriteString(strconv.FormatUint(math.Float64bits(tau), 16))
	return b.String()
}

// Get returns the compiled query for (qw, tau), compiling and caching it on
// a miss. Concurrent misses on the same key may compile twice; the first
// insert wins and the duplicate is discarded, so callers always converge on
// one shared instance.
func (c *QueryCache) Get(qw []string, tau float64) *Query {
	key := cacheKey(qw, tau)

	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		q := el.Value.(*cacheEntry).q
		c.mu.Unlock()
		return q
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock: candidate-set construction can be expensive
	// and must not serialize unrelated queries.
	q := c.x.CompileQuery(qw, tau)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok { // lost the race; share the winner
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).q
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, q: q})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
	return q
}

// Len returns the number of cached queries.
func (c *QueryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a single consistent snapshot of the cache's cumulative
// counters. Both fields are monotonic uint64s for the lifetime of the
// cache; the struct (rather than a multi-value return) is the convention
// every cache in the codebase follows so counter sets can grow without
// touching call sites, and its JSON shape is what /debug/vars serves.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Merge accumulates another snapshot into s (fleet-level aggregation).
func (s CacheStats) Merge(o CacheStats) CacheStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	return s
}

// Stats returns a snapshot of the cumulative hit and miss counts.
func (c *QueryCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses}
}
