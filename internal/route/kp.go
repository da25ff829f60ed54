package route

import "ikrq/internal/model"

// KPNode is one element of a persistent key-partition sequence KP(R)
// (Section II-B). Like route nodes, KP nodes are immutable and share
// prefixes; each node carries an incrementally maintained FNV-1a hash of
// the sequence so homogeneity keys can be computed in O(1).
type KPNode struct {
	Parent *KPNode
	Part   model.PartitionID
	Depth  int32
	Hash   uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvStep(h uint64, v model.PartitionID) uint64 {
	x := uint32(v)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(x))
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// NewKP returns a key-partition sequence containing only the start host
// partition (which covers ps and is therefore always key).
func NewKP(start model.PartitionID) *KPNode {
	return &KPNode{Part: start, Depth: 1, Hash: fnvStep(fnvOffset, start)}
}

// Append returns the sequence extended by partition v. Callers are expected
// to append only key partitions; consecutive duplicates are coalesced,
// which keeps KP well-defined when the start host is also a keyword
// partition crossed by the first hop.
func (k *KPNode) Append(v model.PartitionID) *KPNode {
	return k.AppendInto(new(KPNode), v)
}

// AppendInto is Append writing the extension into caller-provided storage —
// typically a node from a per-query arena — instead of allocating. When the
// append coalesces (v equals the tail partition) n is left untouched and k
// itself is returned, so callers may hand in a node speculatively.
func (k *KPNode) AppendInto(n *KPNode, v model.PartitionID) *KPNode {
	if k != nil && k.Part == v {
		return k
	}
	var depth int32 = 1
	hash := uint64(fnvOffset)
	if k != nil {
		depth = k.Depth + 1
		hash = k.Hash
	}
	*n = KPNode{Parent: k, Part: v, Depth: depth, Hash: fnvStep(hash, v)}
	return n
}

// Sequence returns KP as a slice from first to last key partition.
func (k *KPNode) Sequence() []model.PartitionID {
	if k == nil {
		return nil
	}
	out := make([]model.PartitionID, k.Depth)
	i := int(k.Depth) - 1
	for cur := k; cur != nil; cur = cur.Parent {
		out[i] = cur.Part
		i--
	}
	return out
}

// Equal reports whether two KP sequences are identical. The hash comparison
// short-circuits almost all mismatches; on hash equality the nodes are
// walked to rule out collisions.
func (k *KPNode) Equal(o *KPNode) bool {
	if k == o {
		return true
	}
	if k == nil || o == nil {
		return false
	}
	if k.Hash != o.Hash || k.Depth != o.Depth {
		return false
	}
	a, b := k, o
	for a != nil && b != nil {
		if a == b {
			return true // shared suffix-to-root
		}
		if a.Part != b.Part {
			return false
		}
		a, b = a.Parent, b.Parent
	}
	return a == nil && b == nil
}

// PrimeTable is the hashtable Hprime of Algorithms 3 and 4: it maps a
// homogeneity key (tail item, KP sequence) to the shortest route distance
// seen for that class. Stamp expansion consults it (prime_check) and
// updates it (prime_update); Pruning Rule 5 discards partial routes that
// are not prime against an already-seen homogeneous route.
//
// Classes whose (tail, KP-hash, KP-length) triple is unique — all of them,
// short of an FNV-1a collision between distinct sequences — live inline in
// m; only genuine triple collisions spill into the lazily created over map.
// The previous map[primeKey][]primeEntry paid a one-element slice allocation
// per class, which prime_update's position in the expansion loop turned into
// ~21% of all query allocations.
type PrimeTable struct {
	m    map[primeKey]primeEntry
	over map[primeKey][]primeEntry
	n    int
}

type primeKey struct {
	tail   model.DoorID
	kpHash uint64
	kpLen  int32
}

type primeEntry struct {
	kp   *KPNode
	dist float64
}

// NewPrimeTable returns an empty table.
func NewPrimeTable() *PrimeTable {
	return &PrimeTable{m: make(map[primeKey]primeEntry)}
}

// Reset empties the table while keeping its allocated buckets, so a pooled
// scratch bundle can reuse one table across queries without reallocating.
// clear zeroes the retained values, dropping their KPNode references.
func (t *PrimeTable) Reset() {
	clear(t.m)
	if t.over != nil {
		clear(t.over)
	}
	t.n = 0
}

func makeKey(tail model.DoorID, kp *KPNode) primeKey {
	k := primeKey{tail: tail}
	if kp != nil {
		k.kpHash = kp.Hash
		k.kpLen = kp.Depth
	}
	return k
}

// Check implements prime_check (Algorithm 3): it returns true when no
// recorded homogeneous route is strictly shorter than dist, i.e. the route
// is (still) a temporary prime route and must not be pruned. Ties pass the
// check (a stamp must not be pruned against its own prime_update record);
// result collection dedupes equal-distance homogeneous completions.
func (t *PrimeTable) Check(tail model.DoorID, kp *KPNode, dist float64) bool {
	key := makeKey(tail, kp)
	e, ok := t.m[key]
	if !ok {
		return true
	}
	if e.kp.Equal(kp) {
		return e.dist >= dist-1e-9
	}
	for _, o := range t.over[key] {
		if o.kp.Equal(kp) {
			return o.dist >= dist-1e-9
		}
	}
	return true
}

// Update implements prime_update (Algorithm 4): it records dist as the
// class minimum when it improves on the stored value.
func (t *PrimeTable) Update(tail model.DoorID, kp *KPNode, dist float64) {
	key := makeKey(tail, kp)
	e, ok := t.m[key]
	if !ok {
		t.m[key] = primeEntry{kp: kp, dist: dist}
		t.n++
		return
	}
	if e.kp.Equal(kp) {
		if dist < e.dist {
			e.dist = dist
			t.m[key] = e
		}
		return
	}
	entries := t.over[key]
	for i := range entries {
		if entries[i].kp.Equal(kp) {
			if dist < entries[i].dist {
				entries[i].dist = dist
			}
			return
		}
	}
	if t.over == nil {
		t.over = make(map[primeKey][]primeEntry)
	}
	t.over[key] = append(entries, primeEntry{kp: kp, dist: dist})
	t.n++
}

// Len returns the number of distinct homogeneity classes recorded.
func (t *PrimeTable) Len() int { return t.n }
