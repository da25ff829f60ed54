package search

import (
	"context"
	"time"

	"ikrq/internal/graph"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/route"
)

// execute is the one execution path of route and sequence queries on an
// already validated request. A cancelled ctx fails before any work. On an
// engine with a result cache (Engine.EnableResultCache) the query is keyed
// by key(): a hit returns the stored result as is, with zero work, and
// concurrent identical misses collapse onto one run. Every run that does
// happen — a miss, or any query on a cache-less engine — counts one
// execution and draws a scratch bundle from the engine's pool, returning
// it afterwards whatever run did.
func execute[T any, R interface {
	*T
	cacheable
}](ctx context.Context, e *Engine, key func() string, run func(*execScratch) (R, error)) (R, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	exec := func() (R, error) {
		e.executions.Add(1)
		sc := e.pool.Get().(*execScratch)
		defer e.pool.Put(sc)
		return run(sc)
	}
	c := e.rcache.Load()
	if c == nil {
		return exec()
	}
	v, _, err := c.doAny(ctx, key(), func() (cacheable, error) {
		r, err := exec()
		if r == nil {
			return nil, err // keep the interface nil, not a typed nil
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	return v.(R), nil
}

// searchUncached runs the searcher of Algorithm 1 on a scratch bundle.
func (e *Engine) searchUncached(ctx context.Context, sc *execScratch, req Request, opt Options) (*Result, error) {
	start := time.Now()
	sr := sc.prepare(e, e.qcache.Get(req.QW, req.Tau), req, opt)
	sr.ctx = ctx
	sr.run()
	err := sr.err
	var res *Result
	if err == nil {
		res = sr.result()
	}
	sc.release()
	if err != nil {
		return nil, err
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// execScratch is one reusable bundle of per-query state. prepare() sizes and
// clears every component for the incoming query; release() drops references
// into the finished query's route trees so an idle bundle does not pin them.
type execScratch struct {
	sr searcher

	dn, df   []bool
	queue    stampHeap
	prime    *route.PrimeTable
	top      *topK
	keyAlive partSet
	keyParts []model.PartitionID

	// ws is the shortest-path kernel workspace every Dijkstra of a query on
	// this bundle runs in: epoch-stamped tables reset in O(1), so the graph
	// kernel allocates nothing after the bundle's first query. Its arrays
	// hold no references; release() leaves it alone.
	ws *graph.Workspace

	// staticWS backs the searcher's KoE* static-tree cache (see the
	// searcher field docs); nil until a KoE* query first needs it. Like ws,
	// its arrays hold no per-query references, so release() leaves it
	// alone.
	staticWS *graph.Workspace

	// Per-expansion buffers mirrored into the searcher (see the field docs
	// there). es holds stamp pointers and is cleared on release; the rest
	// are value slices whose capacity is simply retained. koeRemoved is the
	// pooled KoE candidate-removal set, cleared per expansion.
	seeds      []graph.Seed
	hops       []graph.Hop
	es         []*stamp
	expand     []model.DoorID
	commit     []model.PartitionID
	koeTargets []model.PartitionID
	koeRemoved partSet

	// routeDoors and the memos back the searcher's route door set and
	// per-query bound memos (see the field docs there): epoch-stamped, so
	// none needs clearing.
	routeDoors doorSet
	bounds     memo[model.PartitionID, float64]
	lbToPt     memo[model.DoorID, float64]
	doorHosts  memo[model.DoorID, model.PartitionID]

	// ptStates/ptLegs back the searcher's KoE* backend-bound target tables
	// (plain values, capacity retained across queries).
	ptStates []graph.StateID
	ptLegs   []float64

	// ov holds the query's Conditions overlay as dense door sets, route and
	// sequence queries alike. Its arrays hold no references (plain bools and
	// floats), so release() leaves it alone; each load resizes and clears
	// only the sets the incoming overlay needs.
	ov overlay

	// Per-query bump arenas. Sims are float vectors; the rest are the
	// persistent-tree records of the expansion loop (stamps, route nodes,
	// KP nodes, completed routes) — all die with the query, so each arena
	// resets wholesale and its chunks are reused by the next query.
	sims      simsArena
	stamps    arena[stamp]
	nodes     arena[route.Node]
	kps       arena[route.KPNode]
	completes arena[complete]
}

// prepare readies the scratch for a query and returns its searcher. The
// compiled query q is supplied by the caller (normally from the engine's
// query cache) and is only read, never written. release() is the single
// owner of clearing; prepare only sizes and configures.
func (sc *execScratch) prepare(e *Engine, q *keyword.Query, req Request, opt Options) *searcher {
	sc.release() // no-op on a fresh or already-released scratch
	nd := e.s.NumDoors()
	if cap(sc.dn) < nd {
		sc.dn = make([]bool, nd)
		sc.df = make([]bool, nd)
	} else {
		sc.dn = sc.dn[:nd]
		sc.df = sc.df[:nd]
		clear(sc.dn)
		clear(sc.df)
	}
	if sc.prime == nil {
		sc.prime = route.NewPrimeTable()
	}
	if sc.top == nil {
		sc.top = newTopK(req.K, !opt.DisablePrime)
	} else {
		sc.top.reset(req.K, !opt.DisablePrime)
	}
	if sc.ws == nil {
		sc.ws = graph.NewWorkspace()
	}

	sr := &sc.sr
	*sr = searcher{
		e:            e,
		req:          req,
		opt:          opt,
		q:            q,
		hostPs:       e.s.HostPartition(req.Ps),
		hostPt:       e.s.HostPartition(req.Pt),
		prime:        sc.prime,
		top:          sc.top,
		dn:           sc.dn,
		df:           sc.df,
		keyAlive:     &sc.keyAlive,
		queue:        sc.queue[:0],
		ws:           sc.ws,
		staticWS:     sc.staticWS,
		staticSrc:    graph.NoState,
		seedBuf:      sc.seeds[:0],
		hopBuf:       sc.hops[:0],
		esBuf:        sc.es[:0],
		expandBuf:    sc.expand[:0],
		commitBuf:    sc.commit[:0],
		koeTargetBuf: sc.koeTargets[:0],
		koeRemoved:   &sc.koeRemoved,
		routeDoors:   &sc.routeDoors,
		bounds:       &sc.bounds,
		lbToPtMemo:   &sc.lbToPt,
		doorHosts:    &sc.doorHosts,
		scratch:      sc,
	}
	sc.bounds.reset(e.s.NumPartitions())
	sc.lbToPt.reset(nd)
	sc.doorHosts.reset(nd)
	sr.maxRho = q.MaxRelevance()
	sr.cap = req.Delta * (1 + opt.SoftDeltaSlack)
	sr.gamma = opt.PopularityWeight
	sr.initKeyPartitions(sc.keyParts[:0])
	sc.keyParts = sr.keyParts
	sc.ov.load(req.Conditions, nd)
	sr.ov = sc.ov
	sr.initBackendBound(sc.ptStates, sc.ptLegs)
	sc.ptStates = adoptGrown(sc.ptStates, sr.ptStates)
	sc.ptLegs = adoptGrown(sc.ptLegs, sr.ptLegs)
	return sr
}

// release clears the references a finished query left in the scratch (queued
// stamps, completed routes, prime entries, arena-held stamps) so the pooled
// bundle retains only its raw capacity. It is the single owner of the
// clearing invariant — every reference-holding field added to execScratch
// must be dropped here — and is idempotent, so prepare() can call it as a
// safety net and every route query before its bundle goes back to the pool.
func (sc *execScratch) release() {
	if q := sc.sr.queue; cap(q) > cap(sc.queue) {
		sc.queue = q // adopt the grown backing array
	}
	clear(sc.queue[:cap(sc.queue)])
	sc.queue = sc.queue[:0]
	if sc.prime != nil {
		sc.prime.Reset()
	}
	if sc.top != nil {
		sc.top.reset(0, true)
	}
	sc.keyParts = sc.keyParts[:0]
	// Adopt grown per-expansion buffers back from the searcher. es holds
	// stamp pointers (which pin route and KP trees) and is cleared to full
	// capacity; the rest are plain values, their capacity is simply kept.
	// koeRemoved is cleared per expansion by koeTargets, but clear it here
	// too so an idle bundle holds no stale marks.
	sc.es = adoptGrown(sc.es, sc.sr.esBuf)
	clear(sc.es[:cap(sc.es)])
	sc.seeds = adoptGrown(sc.seeds, sc.sr.seedBuf)
	sc.hops = adoptGrown(sc.hops, sc.sr.hopBuf)
	sc.expand = adoptGrown(sc.expand, sc.sr.expandBuf)
	sc.commit = adoptGrown(sc.commit, sc.sr.commitBuf)
	sc.koeTargets = adoptGrown(sc.koeTargets, sc.sr.koeTargetBuf)
	if sc.sr.staticWS != nil {
		sc.staticWS = sc.sr.staticWS // adopt a lazily created workspace
	}
	// keyAlive and koeRemoved are epoch-stamped: stale marks are dead the
	// moment the next query bumps the epoch, and the mark arrays hold no
	// references, so no clearing is needed here.
	sc.stamps.reset()
	sc.nodes.reset()
	sc.kps.reset()
	sc.completes.reset()
	sc.sims.reset()
	sc.sr = searcher{}
}

// adoptGrown keeps the larger of a pooled buffer and the searcher's
// (possibly reallocated) working copy, truncated for the next query.
// Callers whose element type holds pointers must clear the result's full
// capacity themselves (see es above).
func adoptGrown[T any](pooled, grown []T) []T {
	if cap(grown) > cap(pooled) {
		pooled = grown
	}
	return pooled[:0]
}

// simsArena bump-allocates the per-keyword similarity vectors attached to
// stamps. Sims never outlive the query — result() copies the vectors of the
// winning routes — so the whole arena resets in O(1) and its chunks are
// reused by the next query on this scratch.
type simsArena struct {
	chunks [][]float64
	ci     int // index of the chunk currently allocated from
	off    int // next free slot in that chunk
}

const simsChunkLen = 4096

func (a *simsArena) reset() { a.ci, a.off = 0, 0 }

// alloc returns a zeroed vector of length n with full-capacity protection
// (appends by callers would be a bug; the cap fence turns them into copies).
func (a *simsArena) alloc(n int) []float64 {
	if n == 0 {
		return nil
	}
	if n > simsChunkLen {
		return make([]float64, n)
	}
	for {
		if a.ci >= len(a.chunks) {
			a.chunks = append(a.chunks, make([]float64, simsChunkLen))
		}
		if a.off+n <= simsChunkLen {
			s := a.chunks[a.ci][a.off : a.off+n : a.off+n]
			a.off += n
			clear(s)
			return s
		}
		a.ci++
		a.off = 0
	}
}

// arena bump-allocates fixed-size records of the expansion loop (stamps,
// route nodes, KP nodes, completed routes). Records die with the query;
// reset() zeroes the used prefix so recycled records do not pin the previous
// query's route and KP trees while the scratch sits in the pool.
type arena[T any] struct {
	chunks [][]T
	ci     int
	off    int
}

const arenaChunkLen = 512

func (a *arena[T]) reset() {
	for i := 0; i <= a.ci && i < len(a.chunks); i++ {
		n := len(a.chunks[i])
		if i == a.ci {
			n = a.off
		}
		clear(a.chunks[i][:n])
	}
	a.ci, a.off = 0, 0
}

func (a *arena[T]) alloc() *T {
	for {
		if a.ci >= len(a.chunks) {
			a.chunks = append(a.chunks, make([]T, arenaChunkLen))
		}
		if a.off < arenaChunkLen {
			s := &a.chunks[a.ci][a.off]
			a.off++
			return s
		}
		a.ci++
		a.off = 0
	}
}

// idSet is an epoch-stamped dense set of partition or door IDs — the
// graph.Workspace trick applied to the searcher's bookkeeping. Membership
// is mark[v] == epoch, so reset is one epoch bump instead of an O(n) clear
// or a hash-map wipe, add/remove/contains are single array accesses, and
// the mark array (plain uint32s, no references) needs no release-time
// clearing. Epoch 0 is never live: reset starts at 1 and wraps back to 1
// after an O(n) clear once per 2³² resets, and remove writes 0.
type idSet[K model.PartitionID | model.DoorID] struct {
	mark  []uint32
	epoch uint32
}

// partSet and doorSet are the searcher's partition and door sets.
type (
	partSet = idSet[model.PartitionID]
	doorSet = idSet[model.DoorID]
)

// reset empties the set and (re)sizes it for n IDs.
func (s *idSet[K]) reset(n int) {
	if cap(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 1
		return
	}
	s.mark = s.mark[:n]
	s.epoch++
	if s.epoch == 0 { // uint32 wraparound
		clear(s.mark)
		s.epoch = 1
	}
}

func (s *idSet[K]) add(v K)           { s.mark[v] = s.epoch }
func (s *idSet[K]) remove(v K)        { s.mark[v] = 0 }
func (s *idSet[K]) contains(v K) bool { return s.mark[v] == s.epoch }

// memo is a per-ID table of values valid for one query: an ID's value is
// set when the idSet holds it, so reset is O(1).
type memo[K model.PartitionID | model.DoorID, V any] struct {
	set idSet[K]
	val []V
}

// reset empties the memo and (re)sizes it for n IDs.
func (m *memo[K, V]) reset(n int) {
	m.set.reset(n)
	if cap(m.val) < n {
		m.val = make([]V, n)
	}
	m.val = m.val[:n]
}

func (m *memo[K, V]) get(k K) (V, bool) { return m.val[k], m.set.contains(k) }

func (m *memo[K, V]) put(k K, v V) {
	m.set.add(k)
	m.val[k] = v
}
