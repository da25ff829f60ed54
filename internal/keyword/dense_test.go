package keyword

// Equivalence tests for the dense match tables: every probe the search
// issues against a compiled query (IsCandidate, IsKeyPartition, Absorb,
// WouldImprove), and the candidate sets' Sim, Contains and Words, must
// agree with a map-based reference model rebuilt from the public Entries,
// over randomized vocabularies and query mixes of i-words, t-words, and
// unknown words.

import (
	"fmt"
	"math/rand"
	"testing"

	"ikrq/internal/model"
)

// randomVocabulary builds a pseudo-random index: nt t-words, ni i-words each
// owning a random t-word subset, spread over np partitions (some partitions
// stay wordless).
func randomVocabulary(t *testing.T, rng *rand.Rand, ni, nt, np int) *Index {
	t.Helper()
	b := NewIndexBuilder(np)
	var ids []IWordID
	for i := 0; i < ni; i++ {
		var tws []string
		for j := 0; j < nt; j++ {
			if rng.Intn(3) == 0 {
				tws = append(tws, fmt.Sprintf("t%d", j))
			}
		}
		if len(tws) == 0 {
			tws = []string{fmt.Sprintf("t%d", rng.Intn(nt))}
		}
		ids = append(ids, b.DefineIWord(fmt.Sprintf("i%d", i), tws))
	}
	for v := 0; v < np; v++ {
		if rng.Intn(4) == 0 {
			continue // wordless partition
		}
		b.AssignPartition(model.PartitionID(v), ids[rng.Intn(len(ids))])
	}
	x, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return x
}

func TestDenseTablesMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ni, nt, np := 6+rng.Intn(10), 8+rng.Intn(10), 10+rng.Intn(10)
			x := randomVocabulary(t, rng, ni, nt, np)

			// Query keywords: a mix of i-words, t-words, and unknowns.
			var qw []string
			for k := 0; k < 3+rng.Intn(4); k++ {
				switch rng.Intn(3) {
				case 0:
					qw = append(qw, fmt.Sprintf("i%d", rng.Intn(ni)))
				case 1:
					qw = append(qw, fmt.Sprintf("t%d", rng.Intn(nt)))
				default:
					qw = append(qw, fmt.Sprintf("unknown%d", k))
				}
			}
			tau := rng.Float64() * 0.5
			q := x.CompileQuery(qw, tau)

			// Reference model straight from the public Entries.
			refSims := make([]map[IWordID]float64, len(q.Sets))
			refCand := map[IWordID]bool{}
			refKey := map[model.PartitionID]bool{}
			for i, cs := range q.Sets {
				refSims[i] = map[IWordID]float64{}
				for _, e := range cs.Entries {
					refSims[i][e.Word] = e.Sim
					refCand[e.Word] = true
					for _, v := range x.I2P(e.Word) {
						refKey[v] = true
					}
				}
			}

			// Per-set Sim/Contains/Words over every word plus out-of-range IDs.
			for i, cs := range q.Sets {
				for w := IWordID(-1); int(w) <= ni; w++ {
					if got, want := cs.Sim(w), refSims[i][w]; got != want {
						t.Fatalf("set %d: Sim(%d) = %v, reference %v", i, w, got, want)
					}
					if got, want := cs.Contains(w), refSims[i][w] > 0; got != want {
						t.Fatalf("set %d: Contains(%d) = %v, reference %v", i, w, got, want)
					}
				}
				ws := cs.Words()
				if len(ws) != len(cs.Entries) {
					t.Fatalf("set %d: Words() length %d, Entries %d", i, len(ws), len(cs.Entries))
				}
				for j, e := range cs.Entries {
					if ws[j] != e.Word {
						t.Fatalf("set %d: Words()[%d] = %d, Entries order says %d", i, j, ws[j], e.Word)
					}
				}
			}

			// Query-level candidate and key-partition predicates.
			for w := IWordID(-1); int(w) <= ni; w++ {
				if got, want := q.IsCandidate(w), refCand[w]; got != want {
					t.Fatalf("IsCandidate(%d) = %v, reference %v", w, got, want)
				}
			}
			for v := model.PartitionID(-1); int(v) <= np; v++ {
				if got, want := q.IsKeyPartition(v), refKey[v]; got != want {
					t.Fatalf("IsKeyPartition(%d) = %v, reference %v", v, got, want)
				}
			}
			kp := q.KeyPartitions()
			if len(kp) != len(refKey) {
				t.Fatalf("KeyPartitions has %d entries, reference %d", len(kp), len(refKey))
			}
			for i := 1; i < len(kp); i++ {
				if kp[i-1] >= kp[i] {
					t.Fatalf("KeyPartitions not strictly sorted at %d: %v", i, kp)
				}
			}

			// Absorb / WouldImprove against the reference fold, from random
			// starting vectors.
			for trial := 0; trial < 50; trial++ {
				sims := make([]float64, q.Len())
				for i := range sims {
					if rng.Intn(2) == 0 {
						sims[i] = rng.Float64()
					}
				}
				w := IWordID(rng.Intn(ni+2) - 1) // includes -1 and ni (out of range)
				want := append([]float64(nil), sims...)
				wantChanged := false
				for i := range refSims {
					if s := refSims[i][w]; s > want[i] {
						want[i] = s
						wantChanged = true
					}
				}
				if got := q.WouldImprove(sims, w); got != wantChanged {
					t.Fatalf("WouldImprove(%v, %d) = %v, reference %v", sims, w, got, wantChanged)
				}
				got := append([]float64(nil), sims...)
				if changed := q.Absorb(got, w); changed != wantChanged {
					t.Fatalf("Absorb(%v, %d) changed = %v, reference %v", sims, w, changed, wantChanged)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Absorb(%v, %d) → %v, reference %v", sims, w, got, want)
					}
				}
			}
		})
	}
}
