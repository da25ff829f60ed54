package snapshot

import (
	"testing"

	"ikrq/internal/graph"
	"ikrq/internal/snapshot/mapping"
)

// TestMatxFlatRoundTripOddDimensions pins the section-level encode/parse
// contract for MATX at odd and even dimensions: the payload is exactly
// 8+8n² bytes, and both alias modes — the in-place view and the big-endian
// copy — must return the encoded cells.
func TestMatxFlatRoundTripOddDimensions(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5} {
		rec := &graph.MatrixRecord{N: int32(n), Dist: make([]float64, n*n)}
		for i := range rec.Dist {
			rec.Dist[i] = float64(i) * 1.5
		}
		// An aligned copy, as every snapshot image is.
		b := mapping.FromBytes(encodeMatrixFlat(rec)).Bytes()
		if len(b) != 8+8*n*n {
			t.Fatalf("n=%d: MATX payload is %d bytes, want %d", n, len(b), 8+8*n*n)
		}
		v, err := parseMatxFlat(b)
		if err != nil {
			t.Fatalf("n=%d: parseMatxFlat: %v", n, err)
		}
		if v.n != n || len(v.dist) != 8*n*n {
			t.Fatalf("n=%d: parsed n=%d, dist %dB", n, v.n, len(v.dist))
		}
		for _, le := range []bool{true, false} {
			restore := SetHostLittleEndian(le)
			dist, err := alias[float64](v.dist, n*n)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n*n; i++ {
				if dist[i] != rec.Dist[i] {
					t.Fatalf("n=%d le=%v: cell %d round-tripped to %v, want %v", n, le, i, dist[i], rec.Dist[i])
				}
			}
		}
	}
}
