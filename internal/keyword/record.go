package keyword

// IndexTables is the flat form of an Index, the one the snapshot writer
// encodes and the reader hands IndexFromFlat: the i-word and t-word tables
// (IDs implied by position), the I2T mapping in CSR form and the P2I
// assignment. IndexFromFlat derives the inverse mappings (T2I, I2P) and the
// name lookups deterministically, so a restored index is structurally
// identical to the original — same IDs, same sorted mapping slices.
type IndexTables struct {
	IWords []string
	TWords []string
	// I2TOff holds len(IWords)+1 row offsets into I2TVals: i-word i's
	// t-words are I2TVals[I2TOff[i]:I2TOff[i+1]], sorted ascending.
	I2TOff  []int32
	I2TVals []TWordID
	// P2I[v] is the i-word of partition v, or NoIWord.
	P2I []IWordID
}

// Tables captures the index as tables sharing no memory with the index.
func (x *Index) Tables() IndexTables {
	t := IndexTables{
		IWords: append([]string(nil), x.iwords...),
		TWords: append([]string(nil), x.twords...),
		I2TOff: make([]int32, len(x.i2t)+1),
		P2I:    append([]IWordID(nil), x.p2i...),
	}
	for i, row := range x.i2t {
		t.I2TVals = append(t.I2TVals, row...)
		t.I2TOff[i+1] = int32(len(t.I2TVals))
	}
	return t
}

// NumPartitions returns the number of partitions the index was built for
// (the domain of P2I).
func (x *Index) NumPartitions() int { return len(x.p2i) }
