// κ(wQ) exactness gate: Index.CandidateIWords and CompileQuery against the
// map-based algorithm the counting pass replaced, kept here as a test-only
// reference. Every similarity must match bit for bit and every candidate
// set must keep its order, since the search ranks routes by sums of these
// floats. External test package because it drives the generated malls, and
// gen imports keyword.
package keyword_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/keyword"
)

// refCandidates is the map-based κ(wQ): U as a set of t-words, each i-word
// sharing a t-word with U visited once through a seen set, and its Jaccard
// similarity counted by probing U with every t-word of I2T(w).
func refCandidates(x *keyword.Index, wQ string, tau float64) []keyword.Candidate {
	sim := make([]float64, x.NumIWords())
	if iw, ok := x.LookupIWord(wQ); ok {
		sim[iw] = 1
		return refEntries(sim)
	}
	tw, ok := x.LookupTWord(wQ)
	if !ok {
		return refEntries(sim)
	}
	direct := x.T2I(tw)
	for _, wi := range direct {
		sim[wi] = 1
	}
	union := make(map[keyword.TWordID]struct{})
	for _, wi := range direct {
		for _, t := range x.I2T(wi) {
			union[t] = struct{}{}
		}
	}
	seen := make(map[keyword.IWordID]struct{})
	for t := range union {
		for _, wi := range x.T2I(t) {
			if _, dup := seen[wi]; dup {
				continue
			}
			seen[wi] = struct{}{}
			if sim[wi] > 0 {
				continue
			}
			inter := 0
			for _, t2 := range x.I2T(wi) {
				if _, ok := union[t2]; ok {
					inter++
				}
			}
			unionSize := len(union) + len(x.I2T(wi)) - inter
			if unionSize == 0 {
				continue
			}
			if s := float64(inter) / float64(unionSize); s > tau {
				sim[wi] = s
			}
		}
	}
	return refEntries(sim)
}

// refEntries lists the positive similarities by descending similarity,
// then ascending word.
func refEntries(sim []float64) []keyword.Candidate {
	var es []keyword.Candidate
	for w, s := range sim {
		if s > 0 {
			es = append(es, keyword.Candidate{Word: keyword.IWordID(w), Sim: s})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Sim != es[j].Sim {
			return es[i].Sim > es[j].Sim
		}
		return es[i].Word < es[j].Word
	})
	return es
}

var gateTaus = []float64{0, 0.1, 0.2, 0.5, 0.9999, 1}

// TestCandidateSetsMatchMapReference compiles every i-word, every t-word
// and one unknown word of each index at every gate τ, once through
// CandidateIWords and once as a single CompileQuery (whose keywords share
// one scratch, so a reset that misses an entry shows up in a later
// keyword), and diffs both against the map-based reference. Short mode
// takes every third word of the mega mall, whose full sweep dominates the
// test's time under the race detector.
func TestCandidateSetsMatchMapReference(t *testing.T) {
	type venue struct {
		name   string
		x      *keyword.Index
		stride int
	}
	var venues []venue
	mall := func(name string, build func() (*gen.Mall, *gen.Vocabulary, *keyword.Index, error)) {
		_, _, x, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stride := 1
		if name == "mega" && testing.Short() {
			stride = 3
		}
		venues = append(venues, venue{name, x, stride})
	}
	mall("real", func() (*gen.Mall, *gen.Vocabulary, *keyword.Index, error) {
		return gen.RealMall(gen.RealConfig{Seed: 1})
	})
	mall("synthetic", func() (*gen.Mall, *gen.Vocabulary, *keyword.Index, error) { return gen.SyntheticMall(2, 1) })
	mall("mega", func() (*gen.Mall, *gen.Vocabulary, *keyword.Index, error) { return gen.MegaMall(8, 96, 1) })
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ni, nt, np := 6+rng.Intn(10), 8+rng.Intn(10), 10+rng.Intn(10)
		venues = append(venues, venue{fmt.Sprintf("random%d", seed), keyword.RandomVocabulary(t, rng, ni, nt, np), 1})
	}

	for _, v := range venues {
		t.Run(v.name, func(t *testing.T) {
			x := v.x
			var words []string
			for i := 0; i < x.NumIWords(); i += v.stride {
				words = append(words, x.IWord(keyword.IWordID(i)))
			}
			for i := 0; i < x.NumTWords(); i += v.stride {
				words = append(words, x.TWord(keyword.TWordID(i)))
			}
			words = append(words, "no-such-word")
			indirect := 0
			for _, tau := range gateTaus {
				q := x.CompileQuery(words, tau)
				for i, w := range words {
					want := refCandidates(x, w, tau)
					for _, e := range want {
						if e.Sim < 1 {
							indirect++
						}
					}
					diffCandidates(t, "CandidateIWords", w, tau, x.CandidateIWords(w, tau).Entries, want)
					diffCandidates(t, "CompileQuery", w, tau, q.Sets[i].Entries, want)
				}
			}
			if indirect == 0 {
				t.Fatal("no indirect candidate compared")
			}
			t.Logf("%d words × %d τ, %d indirect candidates", len(words), len(gateTaus), indirect)
		})
	}
}

func diffCandidates(t *testing.T, via, w string, tau float64, got, want []keyword.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s κ(%q) at τ=%v: %d candidates, reference %d\ngot  %v\nwant %v", via, w, tau, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Word != want[i].Word || math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
			t.Fatalf("%s κ(%q) at τ=%v: entry %d = (%d, %v), reference (%d, %v)",
				via, w, tau, i, got[i].Word, got[i].Sim, want[i].Word, want[i].Sim)
		}
	}
}
