package keyword

import (
	"slices"
	"testing"

	"ikrq/internal/model"
)

func recordIndex(t *testing.T) *Index {
	t.Helper()
	b := NewIndexBuilder(5)
	coffee := b.DefineIWord("espresso-bar", []string{"coffee", "latte", "beans"})
	toys := b.DefineIWord("toy-store", []string{"lego", "games"})
	anon := b.DefineIWord("kiosk", nil) // i-word with no t-words
	b.AssignPartition(0, coffee)
	b.AssignPartition(2, toys)
	b.AssignPartition(3, coffee) // two partitions share an i-word
	b.AssignPartition(4, anon)
	x, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return x
}

func TestIndexRecordRoundTrip(t *testing.T) {
	x := recordIndex(t)
	got, err := IndexFromFlat(x.Tables())
	if err != nil {
		t.Fatalf("IndexFromFlat: %v", err)
	}
	if got.NumIWords() != x.NumIWords() || got.NumTWords() != x.NumTWords() ||
		got.NumPartitions() != x.NumPartitions() {
		t.Fatalf("shape mismatch")
	}
	for i := 0; i < x.NumIWords(); i++ {
		id := IWordID(i)
		if got.IWord(id) != x.IWord(id) {
			t.Fatalf("i-word %d spelling differs", i)
		}
		if !slices.Equal(got.I2T(id), x.I2T(id)) {
			t.Fatalf("I2T(%d) differs: %v vs %v", i, got.I2T(id), x.I2T(id))
		}
		if !slices.Equal(got.I2P(id), x.I2P(id)) {
			t.Fatalf("I2P(%d) differs: %v vs %v", i, got.I2P(id), x.I2P(id))
		}
		if back, ok := got.LookupIWord(x.IWord(id)); !ok || back != id {
			t.Fatalf("LookupIWord(%q) = %d,%v", x.IWord(id), back, ok)
		}
	}
	for ti := 0; ti < x.NumTWords(); ti++ {
		id := TWordID(ti)
		if got.TWord(id) != x.TWord(id) {
			t.Fatalf("t-word %d spelling differs", ti)
		}
		if !slices.Equal(got.T2I(id), x.T2I(id)) {
			t.Fatalf("T2I(%d) differs: %v vs %v", ti, got.T2I(id), x.T2I(id))
		}
		if back, ok := got.LookupTWord(x.TWord(id)); !ok || back != id {
			t.Fatalf("LookupTWord(%q) = %d,%v", x.TWord(id), back, ok)
		}
	}
	for v := 0; v < x.NumPartitions(); v++ {
		if got.P2I(model.PartitionID(v)) != x.P2I(model.PartitionID(v)) {
			t.Fatalf("P2I(%d) differs", v)
		}
	}
}

func TestIndexRecordSharesNoMemory(t *testing.T) {
	x := recordIndex(t)
	tb := x.Tables()
	tb.IWords[0] = "mutated"
	tb.I2TVals[0] = 99
	tb.P2I[0] = 1
	if x.IWord(0) == "mutated" || x.I2T(0)[0] == 99 || x.P2I(0) == 1 {
		t.Fatal("Tables shares memory with the index")
	}
}

func TestIndexFromFlatRejectsBadInput(t *testing.T) {
	x := recordIndex(t)
	cases := []struct {
		name   string
		mutate func(*IndexTables)
	}{
		{"i2t row count mismatch", func(r *IndexTables) { r.I2TOff = r.I2TOff[:2] }},
		{"duplicate i-word", func(r *IndexTables) { r.IWords[1] = r.IWords[0] }},
		{"duplicate t-word", func(r *IndexTables) { r.TWords[1] = r.TWords[0] }},
		{"i-word/t-word clash", func(r *IndexTables) { r.TWords[0] = r.IWords[0] }},
		{"t-word id out of range", func(r *IndexTables) { r.I2TVals[0] = 99 }},
		{"negative t-word id", func(r *IndexTables) { r.I2TVals[0] = -1 }},
		{"unsorted i2t row", func(r *IndexTables) { r.I2TVals[0], r.I2TVals[1] = r.I2TVals[1], r.I2TVals[0] }},
		{"p2i out of range", func(r *IndexTables) { r.P2I[0] = 99 }},
		{"offsets start past zero", func(r *IndexTables) { r.I2TOff[0] = 1 }},
		{"offsets end short of values", func(r *IndexTables) { r.I2TVals = append(r.I2TVals, 0) }},
		{"row running backwards", func(r *IndexTables) { r.I2TOff[1], r.I2TOff[2] = r.I2TOff[2], r.I2TOff[1] }},
		{"no offsets for the i-words", func(r *IndexTables) { r.I2TOff = nil }},
	}
	for _, tc := range cases {
		tb := x.Tables()
		tc.mutate(&tb)
		if _, err := IndexFromFlat(tb); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
