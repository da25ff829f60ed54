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

	for _, m := range loadModes(data, path) {
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

// loadMode is one way to assemble an engine from a bake.
type loadMode struct {
	name string
	load func() (*search.Engine, error)
}

// loadModes lists the four ways a bake is served, over the stream data and
// the same bytes written to path: LoadEngine (untrusted), the trusted
// reader over an aligned heap copy, OpenEngine on the file, and OpenEngine
// in the big-endian copy mode.
func loadModes(data []byte, path string) []loadMode {
	return []loadMode{
		{"load", func() (*search.Engine, error) { return snapshot.LoadEngine(bytes.NewReader(data)) }},
		{"trusted", func() (*search.Engine, error) { return snapshot.EngineFromFlatTrusted(data) }},
		{"opened", func() (*search.Engine, error) { return snapshot.OpenEngine(path) }},
		{"big-endian", func() (*search.Engine, error) {
			defer snapshot.SetHostLittleEndian(false)()
			return snapshot.OpenEngine(path)
		}},
	}
}

// TestRebakeIdentity is the encode/decode symmetry gate: a bake served in
// each of the four load modes re-bakes to the same bytes, so the reader
// hands every section's tables back exactly as the writer laid them out.
// It covers the real mall with its oracle and the 2-floor synthetic mall
// bare (no ORCL section).
func TestRebakeIdentity(t *testing.T) {
	realMall, _, realIdx, err := gen.RealMall(gen.RealConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	realEng := search.NewEngine(realMall.Space, realIdx)
	realEng.Precompute()
	synth, _, synthIdx, err := gen.SyntheticMall(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bakes := []struct {
		name string
		eng  *search.Engine
	}{
		{"real mall with oracle", realEng},
		{"2-floor synthetic bare", search.NewEngine(synth.Space, synthIdx)},
	}
	for _, bk := range bakes {
		t.Run(bk.name, func(t *testing.T) {
			data := snapshotBytes(t, bk.eng)
			path := filepath.Join(t.TempDir(), "bake.ikrq")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, m := range loadModes(data, path) {
				e, err := m.load()
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				got := snapshotBytes(t, e)
				if !bytes.Equal(got, data) {
					at := 0
					for at < min(len(got), len(data)) && got[at] == data[at] {
						at++
					}
					t.Errorf("%s: re-bake differs from the original (%d vs %d bytes, first difference at byte %d)",
						m.name, len(got), len(data), at)
				}
				if err := e.Close(); err != nil {
					t.Fatalf("%s: Close: %v", m.name, err)
				}
			}
		})
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

func TestFlatEquivalenceSyntheticOracle(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	eng.Precompute()
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
	eng.Precompute()
	flatEquivalence(t, eng, makeRequests(t, mall, voc, eng, 2), 50_000)
}

// TestOpenEngineResidency pins the MemStats split: a flat file opened
// through the serving path reports its bulk tables as mapped bytes on
// platforms with mmap support, and everything as heap where the loader
// degraded to a plain read.
func TestOpenEngineResidency(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
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
			t.Fatal("flat file opened on linux reports no mapped bytes")
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

// findSection locates section tag's directory entry in a flat stream and
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

// TestV3RejectsCorrupt drives hostile flat streams through both trust
// modes: LoadEngine must return a structured error wrapping the right
// sentinel, and the trusted reader must also error — never panic — on
// everything its structural validation covers.
func TestV3RejectsCorrupt(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
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
			entry, _, _ := dirEntry(t, b, "ORCL")
			b[entry] = 'Z'
			return b
		}, snapshot.ErrCorrupt},
		{"payload flip fails checksum", func(t *testing.T, b []byte) []byte {
			_, off, length := dirEntry(t, b, "SPAC")
			b[off+length/2] ^= 0xff
			return b
		}, snapshot.ErrChecksum},
		// Named for the dense-matrix section this case corrupted until
		// ORCL became the one KoE* backend section.
		{"matrix count overflow", func(t *testing.T, b []byte) []byte {
			_, off, _ := dirEntry(t, b, "ORCL")
			for j := 0; j < 8; j++ {
				b[off+j] = 0xff // 2^64-1 hubs
			}
			fixCRC(t, b, "ORCL")
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
// cannot fault — a NaN oracle label, a nonzero skeleton diagonal — is
// rejected by LoadEngine's value scans, and accepted by the trusted reader,
// which skips both those scans and the bulk-section CRCs.
func TestV3TrustModesSplitOnValues(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
	data := snapshotBytes(t, e)
	_, orcl, _ := dirEntry(t, data, "ORCL")
	nHubs := int(binary.LittleEndian.Uint64(data[orcl:]))
	nOff := int(binary.LittleEndian.Uint64(data[orcl+8:]))
	pad8 := func(n int) int { return (n + 7) &^ 7 }
	cases := []struct {
		name, tag string
		cell      int // byte offset into the payload of an f64 cell
		v         float64
	}{
		// Past the three u64 counts, the hub list and the floor offsets:
		// toHub[0], the first state's label to its first hub. (The case
		// keeps the name it had on the retired dense-matrix section.)
		{"NaN matrix distance", "ORCL", 24 + pad8(4*nHubs) + pad8(4*nOff), math.NaN()},
		{"nonzero skeleton diagonal", "SKEL", 8 + 8, 3}, // past u64 n and 2 doors: dist[0][0]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), data...)
			_, off, _ := dirEntry(t, b, tc.tag)
			binary.LittleEndian.PutUint64(b[off+tc.cell:], math.Float64bits(tc.v))
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

// TestForgedSkeletonRejected: a SKEL section whose door list is not the
// space's staircase-door enumeration — a door dropped, or two swapped —
// fails with ErrCorrupt in both trust modes, even with a consistent δs2s
// table and every CRC recomputed. The bounds would otherwise read another
// door's distances for the missing one and prune real routes.
func TestForgedSkeletonRejected(t *testing.T) {
	data := snapshotBytes(t, tinyEngine(t))
	var doors []uint32
	for _, sec := range sections(data) {
		if sec.tag == "SKEL" {
			n := int(binary.LittleEndian.Uint64(sec.body))
			for i := 0; i < n; i++ {
				doors = append(doors, binary.LittleEndian.Uint32(sec.body[8+4*i:]))
			}
		}
	}
	if len(doors) < 2 {
		t.Fatalf("tiny engine's skeleton has %d doors, the forgeries need 2", len(doors))
	}
	// skel lays out a SKEL payload over the given doors with a δs2s table
	// that is zero on the diagonal and 20 elsewhere.
	skel := func(doors []uint32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(len(doors)))
		for _, d := range doors {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		for len(b)%8 != 0 {
			b = append(b, 0)
		}
		for i := range doors {
			for j := range doors {
				v := 20.0
				if i == j {
					v = 0
				}
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
		return b
	}
	cases := []struct {
		name  string
		doors []uint32
	}{
		{"dropped door", doors[:len(doors)-1]},
		{"swapped doors", append([]uint32{doors[1], doors[0]}, doors[2:]...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			secs := sections(data)
			for i := range secs {
				if secs[i].tag == "SKEL" {
					secs[i].body = skel(tc.doors)
				}
			}
			forged := relayout(data[:16], secs)
			if _, err := snapshot.LoadEngine(bytes.NewReader(forged)); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("LoadEngine: got %v, want ErrCorrupt", err)
			}
			if _, err := snapshot.EngineFromFlatTrusted(forged); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("trusted reader: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestKeywordCountOverflowRejected: a KWRD section whose t-word count is
// far beyond what its payload can hold, with the CRC recomputed, fails with
// ErrCorrupt in both trust modes instead of sizing a slice from the count.
func TestKeywordCountOverflowRejected(t *testing.T) {
	b := snapshotBytes(t, tinyEngine(t))
	_, off, _ := dirEntry(t, b, "KWRD")
	binary.LittleEndian.PutUint64(b[off+8:], 1<<60) // past the u64 i-word count
	fixCRC(t, b, "KWRD")
	if _, err := snapshot.LoadEngine(bytes.NewReader(b)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("LoadEngine: got %v, want ErrCorrupt", err)
	}
	if _, err := snapshot.EngineFromFlatTrusted(b); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("trusted reader: got %v, want ErrCorrupt", err)
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

// TestV3FutureVersionFlat: a future version that keeps the current
// min-reader stays readable in both trust modes, its ORCL section adopted.
func TestV3FutureVersionFlat(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
	data := snapshotBytes(t, e)
	future := append([]byte(nil), data...)
	future[8], future[9] = 9, 0 // version 9, min-reader stays 4

	loaded, err := snapshot.LoadEngine(bytes.NewReader(future))
	if err != nil {
		t.Fatalf("LoadEngine future flat version: %v", err)
	}
	if loaded.DistanceSourceIfReady() == nil {
		t.Fatal("LoadEngine on a future flat version lost the ORCL section")
	}
	loaded.Close()
	trusted, err := snapshot.EngineFromFlatTrusted(future)
	if err != nil {
		t.Fatalf("trusted reader on a future flat version: %v", err)
	}
	if trusted.DistanceSourceIfReady() == nil {
		t.Fatal("trusted reader on a future flat version lost the ORCL section")
	}
	trusted.Close()
}
