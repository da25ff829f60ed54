package keyword

// IndexRecord is the flat, serializable form of an Index: the i-word and
// t-word tables (IDs implied by position), the I2T edges and the P2I
// assignment. It is the snapshot writer's input; IndexFromFlat restores
// from the same tables laid out flat, deriving the inverse mappings (T2I,
// I2P) and the name lookups deterministically, so a restored index is
// structurally identical to the original — same IDs, same sorted mapping
// slices.
type IndexRecord struct {
	IWords []string
	TWords []string
	// I2T[i] lists the t-word IDs of i-word i, sorted ascending.
	I2T [][]TWordID
	// P2I[v] is the i-word of partition v, or NoIWord.
	P2I []IWordID
}

// Export captures the index as a record sharing no memory with the index.
func (x *Index) Export() *IndexRecord {
	rec := &IndexRecord{
		IWords: append([]string(nil), x.iwords...),
		TWords: append([]string(nil), x.twords...),
		I2T:    make([][]TWordID, len(x.i2t)),
		P2I:    append([]IWordID(nil), x.p2i...),
	}
	for i := range x.i2t {
		rec.I2T[i] = append([]TWordID(nil), x.i2t[i]...)
	}
	return rec
}

// NumPartitions returns the number of partitions the index was built for
// (the domain of P2I).
func (x *Index) NumPartitions() int { return len(x.p2i) }
