package search

import (
	"slices"

	"ikrq/internal/model"
	"ikrq/internal/route"
)

// stamp is the five-tuple S(v, R, δ, ρ, ψ) of Algorithm 1, plus the
// incremental structures the paper's description implies: the key-partition
// sequence and the per-keyword best similarities.
type stamp struct {
	node *route.Node   // R: persistent door sequence (δ lives in node.Dist)
	kp   *route.KPNode // KP(R)
	v    model.PartitionID
	sims []float64
	rho  float64
	psi  float64
	// perfect records whether every query keyword is matched at similarity
	// 1 (ρ = |QW|+1); newlyPerfect marks the stamp at which coverage first
	// became perfect — connect() attempts the direct shortest-route
	// completion exactly there (Algorithm 5 line 11).
	perfect      bool
	newlyPerfect bool
	seq          int64 // creation order, the deterministic tiebreak
}

func (s *stamp) dist() float64      { return s.node.Dist }
func (s *stamp) tail() model.DoorID { return s.node.Tail() }

// stampHeap is a max-heap on ψ with deterministic tie-breaking (smaller
// distance first, then creation order).
type stampHeap []*stamp

func (h stampHeap) Len() int { return len(h) }
func (h stampHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.psi != b.psi {
		return a.psi > b.psi
	}
	if a.node.Dist != b.node.Dist {
		return a.node.Dist < b.node.Dist
	}
	return a.seq < b.seq
}
func (h stampHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stampHeap) Push(x any)   { *h = append(*h, x.(*stamp)) }
func (h *stampHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// complete is a finished route kept by the top-k collector.
type complete struct {
	node *route.Node
	kp   *route.KPNode
	sims []float64
	rho  float64
	psi  float64
	dist float64
}

// topK collects complete routes. With diversify set (the normal mode) it
// keeps at most one route — the prime one — per homogeneity class; ToE\P
// turns diversification off and simply keeps the k best routes, which is
// what makes its results homogeneous (Fig. 16).
//
// Diversified classes whose (KP-hash, KP-length) key is unique live inline
// in byClass; distinct sequences colliding on the key — possible only via an
// FNV-1a collision — spill into the lazily created over map. nClass counts
// routes across both so membership tests never materialize a slice.
type topK struct {
	k         int
	diversify bool

	byClass map[classKey]*complete   // diversified mode: prime route per class
	over    map[classKey][]*complete // distinct classes colliding on classKey
	nClass  int                      // routes held across byClass and over

	flat   []*complete // ToE\P mode
	seen   doorSeen    // flat-mode door-sequence dedupe
	keyBuf []byte      // reused dedupe-key scratch (pooled with the collector)
	psis   []float64   // reused ψ scratch for the k-bound recompute
	resBuf []*complete // reused results() materialization buffer

	kb float64 // cached k-th best ψ, 0 while fewer than k routes are known
}

type classKey struct {
	hash uint64
	len  int32
}

func newTopK(k int, diversify bool) *topK {
	return &topK{
		k:         k,
		diversify: diversify,
		byClass:   make(map[classKey]*complete),
	}
}

// reset empties the collector for reuse, keeping map buckets and slice
// capacity. The full capacity of the pointer-holding slices is cleared so
// recycled collectors do not pin completed routes of an earlier query.
func (t *topK) reset(k int, diversify bool) {
	t.k = k
	t.diversify = diversify
	t.kb = 0
	clear(t.byClass)
	if t.over != nil {
		clear(t.over)
	}
	t.nClass = 0
	t.seen.reset()
	clear(t.flat[:cap(t.flat)])
	t.flat = t.flat[:0]
	clear(t.resBuf[:cap(t.resBuf)])
	t.resBuf = t.resBuf[:0]
}

// kbound returns the current Pruning Rule 4 bound.
func (t *topK) kbound() float64 { return t.kb }

// count returns how many routes the collector currently holds.
func (t *topK) count() int {
	if t.diversify {
		return t.nClass
	}
	return len(t.flat)
}

// add offers a complete route to the collector.
func (t *topK) add(c *complete) {
	if t.diversify {
		key := classKey{hash: c.kp.Hash, len: c.kp.Depth}
		e, ok := t.byClass[key]
		if !ok {
			t.byClass[key] = c
			t.nClass++
			t.recomputeBound()
			return
		}
		// Same homogeneity class: keep the prime (shortest) route, breaking
		// exact distance ties on the door sequence — the same deterministic
		// rule the exhaustive baseline applies, and one that survives
		// order-preserving door renumbering (the closure-oracle comparison
		// against a rebuilt space).
		if e.kp.Equal(c.kp) {
			if c.dist < e.dist || (c.dist == e.dist && lessDoors(c.node, e.node)) {
				t.byClass[key] = c
				t.recomputeBound()
			}
			return
		}
		entries := t.over[key]
		for i, o := range entries {
			if o.kp.Equal(c.kp) {
				if c.dist < o.dist || (c.dist == o.dist && lessDoors(c.node, o.node)) {
					entries[i] = c
					t.recomputeBound()
				}
				return
			}
		}
		if t.over == nil {
			t.over = make(map[classKey][]*complete)
		}
		t.over[key] = append(entries, c)
		t.nClass++
	} else {
		// A route can be completed twice (early shortest-route completion
		// and later topological arrival); keep one copy of each exact door
		// sequence. The key bytes are built into the collector's reused
		// scratch and only their u64 hash enters the set — no string
		// materialization, with hash collisions verified against the actual
		// door sequences.
		t.keyBuf = appendDoorsKey(t.keyBuf[:0], c.node)
		h := hashDoorsKey(t.keyBuf)
		if t.seen.contains(h, c.node, t.flat) {
			return
		}
		t.flat = append(t.flat, c)
		t.seen.insert(h, int32(len(t.flat)-1))
	}
	t.recomputeBound()
}

// recomputeBound refreshes the cached k-th best ψ. It runs once per accepted
// route, so it gathers the ψ values straight out of the collector into a
// pooled scratch slice (no []*complete materialization, no per-call
// allocation) and sorts ascending with slices.Sort — the k-th best is then
// the k-th from the end, with no sort.Reverse/Float64Slice interface boxing.
func (t *topK) recomputeBound() {
	psis := t.psis[:0]
	if t.diversify {
		for _, c := range t.byClass {
			psis = append(psis, c.psi)
		}
		for _, entries := range t.over {
			for _, c := range entries {
				psis = append(psis, c.psi)
			}
		}
	} else {
		for _, c := range t.flat {
			psis = append(psis, c.psi)
		}
	}
	t.psis = psis
	if len(psis) < t.k {
		t.kb = 0
		return
	}
	slices.Sort(psis)
	t.kb = psis[len(psis)-t.k]
}

// results returns the final top-k routes, ordered by ψ descending with
// deterministic tie-breaking. The returned slice is the collector's pooled
// buffer; result() copies what escapes.
func (t *topK) results() []*complete {
	cs := t.resBuf[:0]
	if t.diversify {
		for _, c := range t.byClass {
			cs = append(cs, c)
		}
		for _, entries := range t.over {
			cs = append(cs, entries...)
		}
	} else {
		cs = append(cs, t.flat...)
	}
	t.resBuf = cs
	slices.SortFunc(cs, func(a, b *complete) int {
		if a.psi != b.psi {
			if a.psi > b.psi {
				return -1
			}
			return 1
		}
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		if lessDoors(a.node, b.node) {
			return -1
		}
		if lessDoors(b.node, a.node) {
			return 1
		}
		return 0
	})
	if len(cs) > t.k {
		cs = cs[:t.k]
	}
	return cs
}

// doorSeen is the flat-mode dedupe set: an open-addressed, power-of-two
// hash table over the 64-bit FNV-1a of a route's door-sequence key. Slots
// store (hash, flat-index+1); a matching hash is verified against the actual
// door sequence of the indexed route, so an FNV collision can never drop a
// distinct route. It replaces a map[string]bool that materialized a string
// key per inserted route.
type doorSeen struct {
	hash []uint64
	idx  []int32 // index into topK.flat plus one; 0 marks an empty slot
	n    int
}

// reset empties the set, keeping capacity. Stale hash words behind empty
// slots are harmless: idx == 0 is the sole emptiness criterion.
func (s *doorSeen) reset() {
	clear(s.idx)
	s.n = 0
}

// contains reports whether flat already holds a route with node's exact door
// sequence, given h = hashDoorsKey of that sequence.
func (s *doorSeen) contains(h uint64, node *route.Node, flat []*complete) bool {
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.idx) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.idx[i]
		if slot == 0 {
			return false
		}
		if s.hash[i] == h && sameDoors(flat[slot-1].node, node) {
			return true
		}
	}
}

// insert records the route just appended at flat index idx under hash h,
// growing at ¾ load. Linear probing never wraps forever: load stays < 1.
func (s *doorSeen) insert(h uint64, idx int32) {
	if len(s.idx) == 0 || (s.n+1)*4 > len(s.idx)*3 {
		s.grow()
	}
	mask := uint64(len(s.idx) - 1)
	i := h & mask
	for s.idx[i] != 0 {
		i = (i + 1) & mask
	}
	s.hash[i] = h
	s.idx[i] = idx + 1
	s.n++
}

func (s *doorSeen) grow() {
	newLen := 64
	if len(s.idx) > 0 {
		newLen = len(s.idx) * 2
	}
	oldHash, oldIdx := s.hash, s.idx
	s.hash = make([]uint64, newLen)
	s.idx = make([]int32, newLen)
	mask := uint64(newLen - 1)
	for j, slot := range oldIdx {
		if slot == 0 {
			continue
		}
		i := oldHash[j] & mask
		for s.idx[i] != 0 {
			i = (i + 1) & mask
		}
		s.hash[i] = oldHash[j]
		s.idx[i] = slot
	}
}

// hashDoorsKey is 64-bit FNV-1a over an appendDoorsKey buffer.
func hashDoorsKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// sameDoors reports whether two routes have identical door sequences — the
// exact verification behind the dedupe set's hash equality. Roots carry
// NoDoor, so walking the chains in lockstep compares the sequences without
// materializing them.
func sameDoors(a, b *route.Node) bool {
	for {
		if a == b {
			return true // shared suffix-to-root, or both nil
		}
		if a == nil || b == nil {
			return false
		}
		if a.Door != b.Door {
			return false
		}
		a, b = a.Parent, b.Parent
	}
}

// appendKPNodeKey is appendKPKey for a linked KP node, walking parents
// (tail-to-head order, equally unique) without materializing the sequence.
func appendKPNodeKey(dst []byte, kp *route.KPNode) []byte {
	for cur := kp; cur != nil; cur = cur.Parent {
		v := cur.Part
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// appendDoorsKey appends a canonical byte key of the route's door sequence
// to dst (tail-to-start order, which is just as unique and avoids the
// Doors() slice allocation) and returns the extended buffer.
func appendDoorsKey(dst []byte, n *route.Node) []byte {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.Door == model.NoDoor {
			continue
		}
		d := cur.Door
		dst = append(dst, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	return dst
}

func lessDoors(a, b *route.Node) bool {
	da, db := a.Doors(), b.Doors()
	for i := 0; i < len(da) && i < len(db); i++ {
		if da[i] != db[i] {
			return da[i] < db[i]
		}
	}
	return len(da) < len(db)
}

// copySims clones a similarity vector into garbage-collected memory; used
// where the copy escapes the query (results) or no arena is available.
func copySims(s []float64) []float64 {
	out := make([]float64, len(s))
	copy(out, s)
	return out
}
