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

// i2tCSR lays a record's I2T rows out as the CSR tables the snapshot
// reader hands IndexFromFlat.
type i2tCSR struct {
	off  []int32
	vals []TWordID
}

func csrOf(rec *IndexRecord) *i2tCSR {
	c := &i2tCSR{off: []int32{0}}
	for _, row := range rec.I2T {
		c.vals = append(c.vals, row...)
		c.off = append(c.off, int32(len(c.vals)))
	}
	return c
}

func indexFromRecord(rec *IndexRecord) (*Index, error) {
	c := csrOf(rec)
	return IndexFromFlat(rec.IWords, rec.TWords, c.off, c.vals, rec.P2I)
}

func TestIndexRecordRoundTrip(t *testing.T) {
	x := recordIndex(t)
	got, err := indexFromRecord(x.Export())
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
	rec := x.Export()
	rec.IWords[0] = "mutated"
	rec.I2T[0][0] = 99
	rec.P2I[0] = 1
	if x.IWord(0) == "mutated" || x.I2T(0)[0] == 99 || x.P2I(0) == 1 {
		t.Fatal("Export shares memory with the index")
	}
}

func TestIndexFromFlatRejectsBadInput(t *testing.T) {
	x := recordIndex(t)
	cases := []struct {
		name   string
		mutate func(*IndexRecord)
	}{
		{"i2t row count mismatch", func(r *IndexRecord) { r.I2T = r.I2T[:1] }},
		{"duplicate i-word", func(r *IndexRecord) { r.IWords[1] = r.IWords[0] }},
		{"duplicate t-word", func(r *IndexRecord) { r.TWords[1] = r.TWords[0] }},
		{"i-word/t-word clash", func(r *IndexRecord) { r.TWords[0] = r.IWords[0] }},
		{"t-word id out of range", func(r *IndexRecord) { r.I2T[0][0] = 99 }},
		{"negative t-word id", func(r *IndexRecord) { r.I2T[0][0] = -1 }},
		{"unsorted i2t row", func(r *IndexRecord) { r.I2T[0][0], r.I2T[0][1] = r.I2T[0][1], r.I2T[0][0] }},
		{"p2i out of range", func(r *IndexRecord) { r.P2I[0] = 99 }},
	}
	for _, tc := range cases {
		rec := x.Export()
		tc.mutate(rec)
		if _, err := indexFromRecord(rec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// CSR defects a record cannot express: offsets that do not span the
	// values table, and a row running backwards.
	csrCases := []struct {
		name   string
		mutate func(*i2tCSR)
	}{
		{"offsets start past zero", func(c *i2tCSR) { c.off[0] = 1 }},
		{"offsets end short of values", func(c *i2tCSR) { c.vals = append(c.vals, 0) }},
		{"row running backwards", func(c *i2tCSR) { c.off[1], c.off[2] = c.off[2], c.off[1] }},
		{"no offsets for the i-words", func(c *i2tCSR) { c.off = nil }},
	}
	for _, tc := range csrCases {
		rec := x.Export()
		c := csrOf(rec)
		tc.mutate(c)
		if _, err := IndexFromFlat(rec.IWords, rec.TWords, c.off, c.vals, rec.P2I); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
