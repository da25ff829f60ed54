package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ikrq/internal/gen"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
	"ikrq/internal/snapshot/mapping"
)

// flatEquivalence is the single-reader correctness gate: the same bake is
// served four ways — LoadEngine (untrusted, over a heap image), the trusted
// reader over an aligned heap copy, snapshot.OpenEngine on a real file (an
// actual mmap where the platform supports one, trusted on little-endian
// hosts), and OpenEngine in the big-endian copy mode, where every table is
// decoded into fresh slices and the mapping is released at load — and each
// must return routes and Stats identical to the freshly built engine for
// every Table III variant, with and without live condition overlays.
func flatEquivalence(t *testing.T, eng *search.Engine, reqs []search.Request, capExpansions int) {
	t.Helper()
	data := snapshotBytes(t, eng)
	t.Logf("snapshot: %.1f MB", float64(len(data))/(1<<20))
	path := filepath.Join(t.TempDir(), "flat.ikrq")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	type probe struct {
		name string
		opt  search.Options
		req  search.Request
		want *search.Result
	}
	overlays := []*model.Conditions{
		nil,
		new(model.Conditions).Close(0),
		new(model.Conditions).Delay(1, 30),
	}
	var probes []probe
	for _, v := range search.Variants() {
		opt, err := search.OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		if opt.DisablePrime {
			opt.MaxExpansions = capExpansions // keep the unpruned variant finite
		}
		for i, base := range reqs {
			for o, cond := range overlays {
				req := base
				req.Conditions = cond
				want, err := eng.Search(req, opt)
				if err != nil {
					t.Fatalf("%s req %d overlay %d fresh: %v", v, i, o, err)
				}
				probes = append(probes, probe{fmt.Sprintf("%s req %d overlay %d", v, i, o), opt, req, want})
			}
		}
	}

	modes := []struct {
		name string
		load func() (*search.Engine, error)
	}{
		{"load", func() (*search.Engine, error) { return snapshot.LoadEngine(bytes.NewReader(data)) }},
		{"trusted", func() (*search.Engine, error) { return snapshot.EngineFromFlatTrusted(data) }},
		{"opened", func() (*search.Engine, error) { return snapshot.OpenEngine(path) }},
		{"big-endian", func() (*search.Engine, error) {
			defer snapshot.SetHostLittleEndian(false)()
			return snapshot.OpenEngine(path)
		}},
	}
	for _, m := range modes {
		e, err := m.load()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for _, p := range probes {
			got, err := e.Search(p.req, p.opt)
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, m.name, err)
			}
			if !reflect.DeepEqual(got.Routes, p.want.Routes) {
				t.Fatalf("%s: %s engine routes differ\nfresh: %+v\n%s: %+v",
					p.name, m.name, p.want.Routes, m.name, got.Routes)
			}
			gs, ws := got.Stats, p.want.Stats
			gs.Elapsed, ws.Elapsed = 0, 0
			if gs != ws {
				t.Fatalf("%s: %s engine did different work\nfresh: %+v\n%s: %+v", p.name, m.name, ws, m.name, gs)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%s: Close: %v", m.name, err)
		}
	}
}

func makeRequests(t *testing.T, mall *gen.Mall, voc *gen.Vocabulary, eng *search.Engine, n int) []search.Request {
	t.Helper()
	qg := gen.NewQueryGen(mall, eng.Keywords(), voc, eng.PathFinder(), 23)
	cfg := gen.DefaultQueryConfig(23)
	cfg.Instances = n
	reqs, err := qg.Instances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestFlatEquivalenceSyntheticMatrix(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.PrecomputeMatrix()
	flatEquivalence(t, eng, makeRequests(t, mall, voc, eng, 3), 50_000)
}

func TestFlatEquivalenceSyntheticOracle(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.PrecomputeOracle()
	flatEquivalence(t, eng, makeRequests(t, mall, voc, eng, 2), 50_000)
}

func TestFlatEquivalenceReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mall equivalence sweep skipped in -short")
	}
	mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.PrecomputeOracle()
	flatEquivalence(t, eng, makeRequests(t, mall, voc, eng, 2), 50_000)
}

// TestOpenEngineResidency pins the MemStats split: a v3 file opened through
// the serving path reports its bulk tables as mapped bytes on platforms
// with mmap support, and everything as heap where the loader degraded to a
// plain read.
func TestOpenEngineResidency(t *testing.T) {
	e := tinyEngine(t)
	e.PrecomputeMatrix()
	path := filepath.Join(t.TempDir(), "tiny.ikrq")
	if err := os.WriteFile(path, snapshotBytes(t, e), 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := snapshot.OpenEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	ms := opened.MemStats()
	if ms.TotalBytes != ms.HeapBytes+ms.MappedBytes {
		t.Fatalf("TotalBytes %d != heap %d + mapped %d", ms.TotalBytes, ms.HeapBytes, ms.MappedBytes)
	}
	if runtime.GOOS == "linux" {
		if ms.MappedBytes == 0 {
			t.Fatal("v3 file opened on linux reports no mapped bytes")
		}
	} else if ms.MappedBytes != 0 {
		t.Fatalf("no-mmap platform reports %d mapped bytes", ms.MappedBytes)
	}
	if err := opened.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := opened.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMappingFromBytesAligned: the flat layout aliases []float64/[]int32
// directly over the image, so a heap-backed mapping must start 8-aligned.
func TestMappingFromBytesAligned(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 4096} {
		m := mapping.FromBytes(make([]byte, n))
		if b := m.Bytes(); len(b) != n {
			t.Fatalf("FromBytes(%d): got %d bytes", n, len(b))
		}
		if m.Mapped() {
			t.Fatal("heap-backed mapping claims to be mmap-backed")
		}
	}
}

// findSection locates section tag's directory entry in a v3 stream and
// returns the entry offset plus the payload offset and length it declares.
func findSection(b []byte, tag string) (entry, off, length int, ok bool) {
	n := int(b[12]) | int(b[13])<<8
	for i := 0; i < n; i++ {
		e := 16 + 24*i
		if string(b[e:e+4]) != tag {
			continue
		}
		var o, l uint64
		for j := 0; j < 8; j++ {
			o |= uint64(b[e+8+j]) << (8 * j)
			l |= uint64(b[e+16+j]) << (8 * j)
		}
		return e, int(o), int(l), true
	}
	return 0, 0, 0, false
}

func hasSection(b []byte, tag string) bool {
	_, _, _, ok := findSection(b, tag)
	return ok
}

// dirEntry is findSection for sections the test knows are present.
func dirEntry(t *testing.T, b []byte, tag string) (entry, off, length int) {
	t.Helper()
	entry, off, length, ok := findSection(b, tag)
	if !ok {
		t.Fatalf("section %s not found", tag)
	}
	return entry, off, length
}

// fixCRC recomputes tag's directory checksum after a payload mutation, so
// the structural validators — not the CRC gate — are what must catch it.
func fixCRC(t *testing.T, b []byte, tag string) {
	t.Helper()
	e, off, length := dirEntry(t, b, tag)
	c := crc32.ChecksumIEEE(b[off : off+length])
	for j := 0; j < 4; j++ {
		b[e+4+j] = byte(c >> (8 * j))
	}
}

// TestV3RejectsCorrupt drives hostile v3 streams through both trust modes:
// LoadEngine must return a structured error wrapping the right sentinel,
// and the trusted reader must also error — never panic — on everything its
// structural validation covers.
func TestV3RejectsCorrupt(t *testing.T) {
	e := tinyEngine(t)
	e.PrecomputeMatrix()
	data := snapshotBytes(t, e)

	cases := []struct {
		name   string
		mutate func(*testing.T, []byte) []byte
		want   error
	}{
		{"reserved header bytes", func(t *testing.T, b []byte) []byte {
			b[14] = 1
			return b
		}, snapshot.ErrCorrupt},
		{"truncated", func(t *testing.T, b []byte) []byte {
			return b[:len(b)-9]
		}, snapshot.ErrCorrupt},
		{"trailing garbage", func(t *testing.T, b []byte) []byte {
			return append(b, 0xee)
		}, snapshot.ErrCorrupt},
		{"misaligned section offset", func(t *testing.T, b []byte) []byte {
			entry, _, _ := dirEntry(t, b, "KWRD")
			b[entry+8]++
			return b
		}, snapshot.ErrCorrupt},
		{"unknown section tag", func(t *testing.T, b []byte) []byte {
			entry, _, _ := dirEntry(t, b, "MATX")
			b[entry] = 'Z'
			return b
		}, snapshot.ErrCorrupt},
		{"payload flip fails checksum", func(t *testing.T, b []byte) []byte {
			_, off, length := dirEntry(t, b, "SPAC")
			b[off+length/2] ^= 0xff
			return b
		}, snapshot.ErrChecksum},
		{"matrix count overflow", func(t *testing.T, b []byte) []byte {
			_, off, _ := dirEntry(t, b, "MATX")
			for j := 0; j < 8; j++ {
				b[off+j] = 0xff // n = 2^64-1 states
			}
			fixCRC(t, b, "MATX")
			return b
		}, snapshot.ErrCorrupt},
		{"pathfinder count overflow", func(t *testing.T, b []byte) []byte {
			_, off, _ := dirEntry(t, b, "PATH")
			for j := 0; j < 8; j++ {
				b[off+j] = 0xff
			}
			fixCRC(t, b, "PATH")
			return b
		}, snapshot.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(t, append([]byte(nil), data...))
			if _, err := snapshot.LoadEngine(bytes.NewReader(mutated)); !errors.Is(err, tc.want) {
				t.Fatalf("LoadEngine error %v does not wrap %v", err, tc.want)
			}
			if _, err := snapshot.EngineFromFlatTrusted(mutated); err == nil {
				t.Fatal("trusted reader accepted a corrupt stream")
			}
		})
	}

	// A nonzero alignment-gap byte, when the bake left any gap to corrupt.
	mutated := append([]byte(nil), data...)
	n := int(mutated[12]) | int(mutated[13])<<8
	corrupted := false
	for i := 0; i < n && !corrupted; i++ {
		e := 16 + 24*i
		var off uint64
		for j := 0; j < 8; j++ {
			off |= uint64(mutated[e+8+j]) << (8 * j)
		}
		if prev := prevEnd(mutated, i); prev < int(off) {
			mutated[prev] = 1
			corrupted = true
		}
	}
	if corrupted {
		if _, err := snapshot.LoadEngine(bytes.NewReader(mutated)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("nonzero gap: LoadEngine error %v does not wrap ErrCorrupt", err)
		}
		if _, err := snapshot.EngineFromFlatTrusted(mutated); err == nil {
			t.Fatal("trusted reader accepted a nonzero alignment gap")
		}
	}

	// Derived-section corruption splits the two trust modes: LoadEngine
	// checksums SPCD but ignores its contents (it rebuilds everything from
	// the space record), so with the CRC patched it must still succeed,
	// while the trusted reader consumes SPCD and must reject the overflowed
	// count without panicking.
	mutated = append([]byte(nil), data...)
	_, off, _ := dirEntry(t, mutated, "SPCD")
	for j := 0; j < 8; j++ {
		mutated[off+j] = 0xff // nParts = 2^64-1
	}
	fixCRC(t, mutated, "SPCD")
	if _, err := snapshot.LoadEngine(bytes.NewReader(mutated)); err != nil {
		t.Fatalf("LoadEngine rejected a stream whose SPCD contents it should ignore: %v", err)
	}
	if _, err := snapshot.EngineFromFlatTrusted(mutated); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("trusted reader on an overflowed derived-section count: got %v, want ErrCorrupt", err)
	}
}

// TestV3TrustModesSplitOnValues pins the trusted-validation contract at the
// container level (DESIGN.md §13): a bulk-table value that is wrong but
// cannot fault — a NaN matrix distance, a nonzero skeleton diagonal — is
// rejected by LoadEngine's value scans, and accepted by the trusted reader,
// which skips both those scans and the bulk-section CRCs.
func TestV3TrustModesSplitOnValues(t *testing.T) {
	e := tinyEngine(t)
	e.PrecomputeMatrix()
	data := snapshotBytes(t, e)
	cases := []struct {
		name, tag string
		cell      int // byte offset into the payload of an f64 cell
	}{
		{"NaN matrix distance", "MATX", 8 + 8},       // past u64 n: dist[1]
		{"nonzero skeleton diagonal", "SKEL", 8 + 8}, // past u64 n and 2 doors: dist[0][0]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), data...)
			_, off, _ := dirEntry(t, b, tc.tag)
			v := math.NaN()
			if tc.tag == "SKEL" {
				v = 3
			}
			binary.LittleEndian.PutUint64(b[off+tc.cell:], math.Float64bits(v))
			if _, err := snapshot.LoadEngine(bytes.NewReader(b)); !errors.Is(err, snapshot.ErrChecksum) {
				t.Fatalf("LoadEngine without CRC fix: got %v, want ErrChecksum", err)
			}
			fixCRC(t, b, tc.tag)
			if _, err := snapshot.LoadEngine(bytes.NewReader(b)); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("LoadEngine: got %v, want ErrCorrupt", err)
			}
			if _, err := snapshot.EngineFromFlatTrusted(b); err != nil {
				t.Fatalf("trusted reader rejected a value-only defect: %v", err)
			}
		})
	}
}

// prevEnd returns where section i's predecessor payload ends (the first
// padding byte before section i); the directory end for i == 0.
func prevEnd(b []byte, i int) int {
	if i == 0 {
		n := int(b[12]) | int(b[13])<<8
		return 16 + 24*n
	}
	e := 16 + 24*(i-1)
	var off, length uint64
	for j := 0; j < 8; j++ {
		off |= uint64(b[e+8+j]) << (8 * j)
		length |= uint64(b[e+16+j]) << (8 * j)
	}
	return int(off + length)
}

// TestV3FutureVersionFlat: a future version that keeps min-reader 3 stays
// readable in both trust modes.
func TestV3FutureVersionFlat(t *testing.T) {
	e := tinyEngine(t)
	e.PrecomputeMatrix()
	data := snapshotBytes(t, e)
	future := append([]byte(nil), data...)
	future[8], future[9] = 9, 0 // version 9, min-reader stays 3

	loaded, err := snapshot.LoadEngine(bytes.NewReader(future))
	if err != nil {
		t.Fatalf("LoadEngine future flat version: %v", err)
	}
	loaded.Close()
	trusted, err := snapshot.EngineFromFlatTrusted(future)
	if err != nil {
		t.Fatalf("trusted reader on a future flat version: %v", err)
	}
	trusted.Close()
}
