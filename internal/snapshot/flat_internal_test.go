package snapshot

import (
	"testing"

	"ikrq/internal/graph"
	"ikrq/internal/snapshot/mapping"
)

// TestMatxFlatRoundTripOddDimensions pins the section-level encode/parse
// contract for MATX: the payload is 8+12n² bytes with no trailing padding,
// which is not 8-aligned when n is odd. A parser that demands alignment
// padding after the prev table runs past the section end and rejects every
// dense bake with an odd state count. Both alias modes — the in-place view
// and the big-endian copy — must return the encoded cells.
func TestMatxFlatRoundTripOddDimensions(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5} {
		rec := &graph.MatrixRecord{
			N:    int32(n),
			Dist: make([]float64, n*n),
			Prev: make([]graph.StateID, n*n),
		}
		for i := range rec.Dist {
			rec.Dist[i] = float64(i) * 1.5
			rec.Prev[i] = graph.StateID(i % max(n, 1))
		}
		// An aligned copy, as every snapshot image is.
		b := mapping.FromBytes(encodeMatrixFlat(rec)).Bytes()
		v, err := parseMatxFlat(b)
		if err != nil {
			t.Fatalf("n=%d: parseMatxFlat: %v", n, err)
		}
		if v.n != n || len(v.dist) != 8*n*n || len(v.prev) != 4*n*n {
			t.Fatalf("n=%d: parsed n=%d, dist %dB, prev %dB", n, v.n, len(v.dist), len(v.prev))
		}
		for _, le := range []bool{true, false} {
			restore := SetHostLittleEndian(le)
			dist, err := alias[float64](v.dist, n*n)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := alias[graph.StateID](v.prev, n*n)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n*n; i++ {
				if dist[i] != rec.Dist[i] || prev[i] != rec.Prev[i] {
					t.Fatalf("n=%d le=%v: cell %d round-tripped to (%v,%v), want (%v,%v)",
						n, le, i, dist[i], prev[i], rec.Dist[i], rec.Prev[i])
				}
			}
		}
	}
}
