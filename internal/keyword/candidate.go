package keyword

import (
	"cmp"
	"slices"

	"ikrq/internal/model"
)

// Candidate is one entry (wi, s) of a candidate i-word set κ(wQ): a matching
// i-word and the similarity between the query keyword and that i-word.
type Candidate struct {
	Word IWordID
	Sim  float64
}

// CandidateSet is κ(wQ) for one query keyword (Definition 4).
type CandidateSet struct {
	// Entries sorted by descending similarity, ties broken by word ID so
	// results are deterministic.
	Entries []Candidate
}

// Sim returns the similarity of i-word w in the set, or 0 when w is not a
// matching i-word of the query keyword. It scans Entries, a few candidates
// per keyword; the search probes the Query's dense tables instead.
func (cs *CandidateSet) Sim(w IWordID) float64 {
	for _, e := range cs.Entries {
		if e.Word == w {
			return e.Sim
		}
	}
	return 0
}

// Contains reports whether w ∈ κ(wQ).Wi. Every kept candidate has
// similarity > 0: direct matches score 1, and indirect ones share at least
// one t-word with U.
func (cs *CandidateSet) Contains(w IWordID) bool { return cs.Sim(w) > 0 }

// Words returns κ(wQ).Wi, the matching i-words, in descending-similarity
// order, as a new slice.
func (cs *CandidateSet) Words() []IWordID {
	ws := make([]IWordID, len(cs.Entries))
	for i, e := range cs.Entries {
		ws[i] = e.Word
	}
	return ws
}

// compileScratch is the dense working state of κ(wQ)'s counting pass:
// inU marks U's t-words (listed in u), inter[w] counts |I2T(w) ∩ U|, and
// touched lists every i-word whose count left zero. reset clears only the
// entries one keyword touched, so one scratch serves a whole query.
type compileScratch struct {
	inU     []bool
	u       []TWordID
	inter   []int32
	touched []IWordID
}

func (x *Index) newCompileScratch() *compileScratch {
	return &compileScratch{inU: make([]bool, x.NumTWords()), inter: make([]int32, x.NumIWords())}
}

func (sc *compileScratch) reset() {
	for _, t := range sc.u {
		sc.inU[t] = false
	}
	for _, w := range sc.touched {
		sc.inter[w] = 0
	}
	sc.u, sc.touched = sc.u[:0], sc.touched[:0]
}

// CandidateIWords computes κ(wQ) for a raw query keyword (Definition 4).
// The keyword's type (i-word vs t-word) is recognized automatically, as the
// paper's implementation does:
//
//   - i-word: κ = {(wQ, 1)}.
//   - t-word: every direct matching i-word w' ∈ T2I(wQ) with similarity 1,
//     plus every indirect matching i-word w” whose t-word set overlaps
//     U = ∪_{wi∈T2I(wQ)} I2T(wi), with Jaccard similarity
//     |I2T(w”)∩U| / |I2T(w”)∪U|, kept only when the similarity exceeds τ.
//   - unknown word: empty set.
func (x *Index) CandidateIWords(wQ string, tau float64) *CandidateSet {
	return x.candidateIWords(wQ, tau, x.newCompileScratch())
}

// candidateIWords is CandidateIWords on a lent scratch, which it leaves
// reset. The Jaccard numerators come from one counting pass: each t ∈ U
// adds 1 to inter[w] for every w ∈ T2I(t). T2I is the exact, strictly
// sorted inverse of I2T (IndexBuilder and IndexFromFlat both guarantee
// it), so inter[w] = |I2T(w) ∩ U| for every i-word sharing a t-word with
// U, the denominator is |U| + |I2T(w)| − inter[w], and no other i-word can
// score above 0.
func (x *Index) candidateIWords(wQ string, tau float64, sc *compileScratch) *CandidateSet {
	cs := &CandidateSet{}
	if iw, ok := x.LookupIWord(wQ); ok {
		cs.Entries = []Candidate{{Word: iw, Sim: 1}}
		return cs
	}
	tw, ok := x.LookupTWord(wQ)
	if !ok {
		return cs
	}
	defer sc.reset()
	direct := x.t2i[tw]
	for _, wi := range direct {
		for _, t := range x.i2t[wi] {
			if !sc.inU[t] {
				sc.inU[t] = true
				sc.u = append(sc.u, t)
			}
		}
	}
	for _, t := range sc.u {
		for _, wi := range x.t2i[t] {
			if sc.inter[wi] == 0 {
				sc.touched = append(sc.touched, wi)
			}
			sc.inter[wi]++
		}
	}
	// Direct matches score 1. Each shares wQ with U, so the pass touched
	// it; a count of −1 keeps it out of the indirect scoring below.
	for _, wi := range direct {
		cs.Entries = append(cs.Entries, Candidate{Word: wi, Sim: 1})
		sc.inter[wi] = -1
	}
	for _, wi := range sc.touched {
		if inter := int(sc.inter[wi]); inter > 0 {
			s := float64(inter) / float64(len(sc.u)+len(x.i2t[wi])-inter)
			if s > tau {
				cs.Entries = append(cs.Entries, Candidate{Word: wi, Sim: s})
			}
		}
	}
	slices.SortFunc(cs.Entries, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(b.Sim, a.Sim), cmp.Compare(a.Word, b.Word))
	})
	return cs
}

// Query is a compiled query keyword list: per-keyword candidate sets plus
// dense lookup tables that let the search update coverage with array loads
// as routes grow. The tables are built once at compile time (CompileQuery is
// cached by the engine's query LRU) and are only read afterwards, so one
// compiled query may back any number of concurrent searches.
type Query struct {
	// Raw keywords as given by the user.
	Raw []string
	// Tau is the similarity threshold used to compile the candidate sets.
	Tau float64
	// Sets[i] is κ(Raw[i]).
	Sets []*CandidateSet

	// matchOff and matchList form a CSR view of the inverted match relation:
	// i-word w covers the query keywords of
	// matchList[matchOff[w]:matchOff[w+1]], ordered by keyword position. The
	// dense offsets replace the map[IWordID][]match the hot path used to hash
	// through on every similarity probe.
	matchOff  []int32
	matchList []match

	// keyTab is the dense partition-indexed key-partition predicate and
	// keyParts its sorted materialization: the union of I2P over all
	// candidate i-words.
	keyTab   []bool
	keyParts []model.PartitionID
}

type match struct {
	kw  int
	sim float64
}

// CompileQuery converts a raw keyword list QW into candidate i-word sets and
// the derived lookup structures (K(QW) of Example 4 plus the key-partition
// set P of Algorithm 1 line 3).
func (x *Index) CompileQuery(qw []string, tau float64) *Query {
	q := &Query{
		Raw:    append([]string(nil), qw...),
		Tau:    tau,
		Sets:   make([]*CandidateSet, len(qw)),
		keyTab: make([]bool, x.NumPartitions()),
	}
	nw := x.NumIWords()
	counts := make([]int32, nw+1)
	sc := x.newCompileScratch()
	for i, w := range qw {
		cs := x.candidateIWords(w, tau, sc)
		q.Sets[i] = cs
		for _, e := range cs.Entries {
			counts[e.Word+1]++
			for _, v := range x.i2p[e.Word] {
				if !q.keyTab[v] {
					q.keyTab[v] = true
					q.keyParts = append(q.keyParts, v)
				}
			}
		}
	}
	for w := 0; w < nw; w++ {
		counts[w+1] += counts[w]
	}
	q.matchOff = counts
	q.matchList = make([]match, counts[nw])
	cursor := sc.inter // all zero again after the last reset
	for i := range q.Sets {
		for _, e := range q.Sets[i].Entries {
			w := e.Word
			q.matchList[q.matchOff[w]+cursor[w]] = match{kw: i, sim: e.Sim}
			cursor[w]++
		}
	}
	slices.Sort(q.keyParts)
	return q
}

// Len returns |QW|.
func (q *Query) Len() int { return len(q.Raw) }

// MaxRelevance returns the upper bound |QW|+1 of ρ.
func (q *Query) MaxRelevance() float64 { return float64(len(q.Raw)) + 1 }

// IsCandidate reports whether i-word w matches any query keyword (w ∈ Wci).
func (q *Query) IsCandidate(w IWordID) bool {
	if w < 0 || int(w)+1 >= len(q.matchOff) {
		return false
	}
	return q.matchOff[w] < q.matchOff[w+1]
}

// IsKeyPartition reports whether partition v can cover some query keyword.
func (q *Query) IsKeyPartition(v model.PartitionID) bool {
	if v < 0 || int(v) >= len(q.keyTab) {
		return false
	}
	return q.keyTab[v]
}

// KeyPartitions returns the sorted set of partitions covering at least one
// query keyword (the set P of Algorithm 1 before start/terminal
// adjustment). The slice is owned by the query.
func (q *Query) KeyPartitions() []model.PartitionID { return q.keyParts }

// Absorb folds i-word w into a per-keyword best-similarity vector: for every
// query keyword that w matches, sims[kw] is raised to the match similarity
// if that improves it. It returns true when any entry changed, letting
// callers skip copy-on-write when nothing improved.
func (q *Query) Absorb(sims []float64, w IWordID) bool {
	if w < 0 || int(w)+1 >= len(q.matchOff) {
		return false
	}
	changed := false
	for _, m := range q.matchList[q.matchOff[w]:q.matchOff[w+1]] {
		if m.sim > sims[m.kw] {
			sims[m.kw] = m.sim
			changed = true
		}
	}
	return changed
}

// WouldImprove reports whether absorbing w would raise any entry of sims,
// without modifying it.
func (q *Query) WouldImprove(sims []float64, w IWordID) bool {
	if w < 0 || int(w)+1 >= len(q.matchOff) {
		return false
	}
	for _, m := range q.matchList[q.matchOff[w]:q.matchOff[w+1]] {
		if m.sim > sims[m.kw] {
			return true
		}
	}
	return false
}

// KeywordCovered reports whether query keyword kw is covered by sims.
func KeywordCovered(sims []float64, kw int) bool { return sims[kw] > 0 }

// Relevance computes ρ from a per-keyword best-similarity vector
// (Definition 6): 0 when nothing is covered, otherwise N + (Σ best sims)/N
// where N is the number of covered query keywords.
func Relevance(sims []float64) float64 {
	n := 0
	sum := 0.0
	for _, s := range sims {
		if s > 0 {
			n++
			sum += s
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) + sum/float64(n)
}

// CoveredCount returns N: how many query keywords sims covers.
func CoveredCount(sims []float64) int {
	n := 0
	for _, s := range sims {
		if s > 0 {
			n++
		}
	}
	return n
}

// FullyCovered reports whether every query keyword has a match (N == |QW|).
func FullyCovered(sims []float64) bool {
	for _, s := range sims {
		if s == 0 {
			return false
		}
	}
	return true
}

// PerfectlyCovered reports whether ρ reaches its maximum |QW|+1, i.e. every
// keyword is matched with similarity exactly 1 (the early-connect condition
// of Algorithm 5 line 11).
func PerfectlyCovered(sims []float64) bool {
	for _, s := range sims {
		if s < 1 {
			return false
		}
	}
	return len(sims) > 0
}
