package snapshot_test

import (
	"bytes"
	"testing"

	"ikrq/internal/snapshot"
)

// FuzzSnapshotDecode feeds arbitrary bytes to the reader in both trust
// modes. The contract under test: corrupt, truncated, version-bumped or
// otherwise hostile input must come back as an error — neither mode may
// panic, hang, or let an invalid structure reach the search layer. The
// untrusted mode (LoadEngine) checks every CRC and value; the trusted mode
// skips the bulk CRCs and value scans, so its structural checks over SPCD,
// SKEL and ORCL have to hold on their own.
func FuzzSnapshotDecode(f *testing.F) {
	e := tinyEngine(f)
	e.Precompute()
	valid := snapshotBytes(f, e)

	f.Add(valid)
	f.Add(snapshotBytes(f, tinyEngine(f))) // no KoE* backend section
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:12])
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})
	// Version bump.
	bumped := append([]byte(nil), valid...)
	bumped[9] = 0x7f
	f.Add(bumped)
	// Flipped payload byte (checksum mismatch).
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	// Flipped directory byte (bad section geometry).
	dirflip := append([]byte(nil), valid...)
	dirflip[16+9] ^= 0x04
	f.Add(dirflip)
	// Retired sequential headers: v2 (min-reader 2) and v1 (no min-reader).
	v2 := append([]byte(nil), valid...)
	v2[8], v2[9], v2[10], v2[11] = 2, 0, 2, 0
	f.Add(v2)
	v1 := append([]byte(nil), valid...)
	v1[8], v1[9] = 1, 0
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		if eng, err := snapshot.LoadEngine(bytes.NewReader(data)); err == nil {
			_ = eng.Close()
		}
		if eng, err := snapshot.EngineFromFlatTrusted(data); err == nil {
			_ = eng.Close()
		}
	})
}
