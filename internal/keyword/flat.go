package keyword

import (
	"fmt"

	"ikrq/internal/model"
)

// IndexFromFlat restores an Index from its tables. The I2T rows and P2I
// are adopted by reference — when the caller hands views over an mmap'd
// snapshot, the match lists serve straight from the page cache. Every
// stored ID is validated in every load (the tables are O(words + edges +
// partitions), far from the bulk float tables the trusted fast path exists
// for), and the derived mappings (T2I, I2P, name lookups) are rebuilt in
// deterministic order: t2i rows by ascending i-word, i2p rows by ascending
// partition.
func IndexFromFlat(tb IndexTables) (*Index, error) {
	iwords, twords, i2tOff, i2tVals, p2i := tb.IWords, tb.TWords, tb.I2TOff, tb.I2TVals, tb.P2I
	if len(i2tOff) != len(iwords)+1 {
		return nil, fmt.Errorf("keyword: flat index has %d i-words but %d I2T row offsets",
			len(iwords), len(i2tOff))
	}
	if len(i2tOff) > 0 && (i2tOff[0] != 0 || int(i2tOff[len(i2tOff)-1]) != len(i2tVals)) {
		return nil, fmt.Errorf("keyword: flat index I2T offsets span [%d,%d], values table has %d entries",
			i2tOff[0], i2tOff[len(i2tOff)-1], len(i2tVals))
	}
	x := &Index{
		iwords:      iwords,
		twords:      twords,
		iwordByName: make(map[string]IWordID, len(iwords)),
		twordByName: make(map[string]TWordID, len(twords)),
		p2i:         p2i,
		i2p:         make([][]model.PartitionID, len(iwords)),
		i2t:         make([][]TWordID, len(iwords)),
		t2i:         make([][]IWordID, len(twords)),
	}
	for i, w := range x.iwords {
		if _, dup := x.iwordByName[w]; dup {
			return nil, fmt.Errorf("keyword: duplicate i-word %q in flat index", w)
		}
		x.iwordByName[w] = IWordID(i)
	}
	for i, w := range x.twords {
		if _, dup := x.twordByName[w]; dup {
			return nil, fmt.Errorf("keyword: duplicate t-word %q in flat index", w)
		}
		if _, clash := x.iwordByName[w]; clash {
			return nil, fmt.Errorf("keyword: word %q is both an i-word and a t-word in flat index", w)
		}
		x.twordByName[w] = TWordID(i)
	}
	for i := range x.iwords {
		lo, hi := i2tOff[i], i2tOff[i+1]
		if lo < 0 || hi < lo || int(hi) > len(i2tVals) {
			return nil, fmt.Errorf("keyword: flat index I2T row %d spans [%d,%d) of %d values", i, lo, hi, len(i2tVals))
		}
		row := i2tVals[lo:hi:hi]
		for j, t := range row {
			if int(t) < 0 || int(t) >= len(x.twords) {
				return nil, fmt.Errorf("keyword: I2T[%d] references missing t-word %d", i, t)
			}
			if j > 0 && row[j-1] >= t {
				return nil, fmt.Errorf("keyword: I2T[%d] is not strictly sorted", i)
			}
			// i ascends across the outer loop, so t2i rows come out sorted.
			x.t2i[t] = append(x.t2i[t], IWordID(i))
		}
		x.i2t[i] = row
	}
	for v, w := range x.p2i {
		if w == NoIWord {
			continue
		}
		if int(w) < 0 || int(w) >= len(x.iwords) {
			return nil, fmt.Errorf("keyword: P2I[%d] references missing i-word %d", v, w)
		}
		// v ascends, so i2p rows come out sorted.
		x.i2p[w] = append(x.i2p[w], model.PartitionID(v))
	}
	return x, nil
}
