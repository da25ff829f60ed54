package snapshot

import (
	"ikrq/internal/search"
	"ikrq/internal/snapshot/mapping"
)

// EngineFromFlatTrusted runs the reader in trusted mode — the mode only a
// real OS mapping on a little-endian host gets — over an aligned private
// copy of b. Tests and the fuzzer use it to reach the structural checks
// that must stand alone once the bulk CRCs and value scans are skipped.
func EngineFromFlatTrusted(b []byte) (*search.Engine, error) {
	e, _, err := engineFromFlat(mapping.FromBytes(b).Bytes(), true)
	return e, err
}

// SetHostLittleEndian overrides the host byte-order probe so the
// big-endian copy mode runs on any host. It returns a func restoring the
// probe; tests using it must not run in parallel.
func SetHostLittleEndian(le bool) (restore func()) {
	old := hostLittleEndian
	hostLittleEndian = le
	return func() { hostLittleEndian = old }
}
