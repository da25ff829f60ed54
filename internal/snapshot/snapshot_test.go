package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ikrq/internal/gen"
	"ikrq/internal/geom"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/snapshot"
)

// tinyEngine builds a minimal two-floor engine for container-level tests:
// two hallways, a named shop, and a staircase per floor.
func tinyEngine(t testing.TB) *search.Engine {
	t.Helper()
	b := model.NewBuilder()
	var stairDoors []model.DoorID
	shopNames := []string{"espresso-bar", "toy-store"}
	var shops []model.PartitionID
	for f := 0; f < 2; f++ {
		hA := b.AddPartition("hA", model.KindHallway, geom.R(0, 0, 10, 10, f))
		hB := b.AddPartition("hB", model.KindHallway, geom.R(10, 0, 20, 10, f))
		st := b.AddPartition("stair", model.KindStaircase, geom.R(20, 0, 25, 5, f))
		shop := b.AddPartition(shopNames[f], model.KindRoom, geom.R(0, 10, 10, 20, f))
		b.AddDoor(geom.Pt(10, 5, f), hA, hB)
		stairDoors = append(stairDoors, b.AddDoor(geom.Pt(20, 2.5, f), hB, st))
		b.AddDoor(geom.Pt(5, 10, f), hA, shop)
		shops = append(shops, shop)
	}
	b.AddStairway(stairDoors[0], stairDoors[1], 20)
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	kb := keyword.NewIndexBuilder(s.NumPartitions())
	kb.AssignPartition(shops[0], kb.DefineIWord("espresso-bar", []string{"coffee", "latte"}))
	kb.AssignPartition(shops[1], kb.DefineIWord("toy-store", []string{"lego", "coffee"}))
	x, err := kb.Build()
	if err != nil {
		t.Fatalf("keyword Build: %v", err)
	}
	return search.NewEngine(s, x)
}

func snapshotBytes(t testing.TB, e *search.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.SaveEngine(&buf, e); err != nil {
		t.Fatalf("SaveEngine: %v", err)
	}
	return buf.Bytes()
}

func TestSaveLoadTinyEngine(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
	data := snapshotBytes(t, e)

	loaded, err := snapshot.LoadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if loaded.DistanceSourceIfReady() == nil {
		t.Fatal("loaded engine did not adopt the persisted KoE* backend")
	}
	req := search.Request{
		Ps: geom.Pt(1, 5, 0), Pt: geom.Pt(18, 5, 1),
		Delta: 200, QW: []string{"coffee", "lego"}, K: 3, Alpha: 0.5, Tau: 0.2,
	}
	for _, v := range search.Variants() {
		opt, err := search.OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Search(req, opt)
		if err != nil {
			t.Fatalf("%s fresh: %v", v, err)
		}
		got, err := loaded.Search(req, opt)
		if err != nil {
			t.Fatalf("%s loaded: %v", v, err)
		}
		if !reflect.DeepEqual(got.Routes, want.Routes) {
			t.Fatalf("%s: loaded engine routes differ\nfresh: %+v\nloaded: %+v", v, want.Routes, got.Routes)
		}
	}
}

func TestSaveWithoutMatrixOmitsSection(t *testing.T) {
	e := tinyEngine(t)
	data := snapshotBytes(t, e)
	if hasSection(data, "ORCL") {
		t.Fatal("engine without a built KoE* backend wrote a backend section")
	}
	loaded, err := snapshot.LoadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if loaded.DistanceSourceIfReady() != nil {
		t.Fatal("loaded engine claims a KoE* backend that was never persisted")
	}
	// KoE* still works — the oracle is built lazily as on a fresh engine.
	req := search.Request{
		Ps: geom.Pt(1, 5, 0), Pt: geom.Pt(18, 5, 1),
		Delta: 200, QW: []string{"coffee"}, K: 2, Alpha: 0.5, Tau: 0.2,
	}
	opt, _ := search.OptionsFor(search.VariantKoEStar)
	if _, err := loaded.Search(req, opt); err != nil {
		t.Fatalf("KoE* on a backend-less snapshot: %v", err)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
	data := snapshotBytes(t, e)

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, snapshot.ErrCorrupt},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, snapshot.ErrBadMagic},
		// A bumped version alone no longer rejects — the min-reader field
		// governs readability — so the unreadable case bumps both.
		{"version needing newer reader", func(b []byte) []byte {
			b[8] = 0xfe
			b[9] = 0x01
			b[10] = 0xfe
			b[11] = 0x01
			return b
		}, snapshot.ErrVersion},
		{"version zero", func(b []byte) []byte { b[8] = 0; b[9] = 0; return b }, snapshot.ErrVersion},
		{"payload flip", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }, snapshot.ErrChecksum},
		{"truncated", func(b []byte) []byte { return b[:len(b)-7] }, snapshot.ErrCorrupt},
		{"header only", func(b []byte) []byte { return b[:12] }, snapshot.ErrCorrupt},
		{"trailing garbage", func(b []byte) []byte { return append(b, 1, 2, 3) }, snapshot.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), data...))
			_, err := snapshot.LoadEngine(bytes.NewReader(mutated))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// TestRoundTripOracleSynthetic bakes an engine that never built a KoE*
// backend: every load mode must build the same one lazily and answer
// exactly like the fresh engine.
func TestRoundTripOracleSynthetic(t *testing.T) {
	mall, voc, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	flatEquivalence(t, eng, makeRequests(t, mall, voc, eng, 3), 50_000)
}

// TestRoundTripOracleReal covers the real mall on a bake without a KoE*
// backend (TestFlatEquivalenceReal covers it on an oracle bake).
func TestRoundTripOracleReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mall round trip skipped in -short")
	}
	mall, voc, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := search.NewEngine(mall.Space, idx)
	flatEquivalence(t, eng, makeRequests(t, mall, voc, eng, 2), 50_000)
}

// TestColdStartSpeedup is the load-vs-rebuild gate on the simulated real
// mall: assembling an engine from a snapshot that includes the KoE* oracle
// must beat deriving the same index layer from scratch by a wide margin.
// The rebuild replays the space builder and derives the state graph, the
// skeleton closure and the oracle's hub sweep; the load only decodes and
// revalidates, with no Dijkstra at all. The ratio grows with the venue
// (about 5x on the 7-floor real mall, about 1x on a 2-floor synthetic
// one, where both sides take under a millisecond), so the gate runs on the
// real mall and asserts 3x to stay robust on loaded CI machines. LoadEngine
// runs the untrusted mode, every CRC and value scan included. Each side
// takes its best of three runs so a scheduler hiccup on a saturated runner
// cannot fail the gate on timing noise alone.
func TestColdStartSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	mall, _, idx, err := gen.RealMall(gen.RealConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var eng *search.Engine
	rebuild := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		eng = search.NewEngine(mall.Space, idx)
		eng.Precompute()
		if d := time.Since(t0); d < rebuild {
			rebuild = d
		}
	}

	data := snapshotBytes(t, eng)

	load := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t1 := time.Now()
		loaded, err := snapshot.LoadEngine(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t1); d < load {
			load = d
		}
		if loaded.DistanceSourceIfReady() == nil {
			t.Fatal("snapshot lost the oracle")
		}
	}
	t.Logf("rebuild=%v load=%v speedup=%.1fx snapshot=%.1fMB",
		rebuild, load, float64(rebuild)/float64(load), float64(len(data))/(1<<20))
	if load*3 > rebuild {
		t.Errorf("load (%v) is not ≥3x faster than rebuild (%v)", load, rebuild)
	}
}

// BenchmarkEngineColdStart compares the two ways to get a serving engine:
// deriving the index layer from scratch (space, skeleton, state graph and
// KoE* oracle) versus assembling it from a baked snapshot.
func BenchmarkEngineColdStart(b *testing.B) {
	mall, _, idx, err := gen.SyntheticMall(2, 7)
	if err != nil {
		b.Fatal(err)
	}
	warm := search.NewEngine(mall.Space, idx)
	warm.Precompute()
	data := snapshotBytes(b, warm)

	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := search.NewEngine(mall.Space, idx)
			e.Precompute()
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.LoadEngine(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mapped", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.ikrq")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			e, err := snapshot.OpenEngine(path)
			if err != nil {
				b.Fatal(err)
			}
			_ = e.Close()
		}
	})
}

// TestSnapshotOracleBackendRoundTrip bakes an engine whose KoE* backend is
// built, round-trips it, and checks the loaded engine adopts the ORCL
// section instead of re-running the hub sweep — and answers every variant
// identically.
func TestSnapshotOracleBackendRoundTrip(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
	data := snapshotBytes(t, e)
	if !hasSection(data, "ORCL") {
		t.Fatal("engine with a built oracle wrote no ORCL section")
	}
	loaded, err := snapshot.LoadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if ds := loaded.DistanceSourceIfReady(); ds == nil || ds.Kind() != "oracle" {
		t.Fatal("loaded engine did not adopt the persisted oracle")
	}
	req := search.Request{
		Ps: geom.Pt(1, 5, 0), Pt: geom.Pt(18, 5, 1),
		Delta: 200, QW: []string{"coffee", "lego"}, K: 3, Alpha: 0.5, Tau: 0.2,
	}
	for _, v := range search.Variants() {
		opt, err := search.OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Search(req, opt)
		if err != nil {
			t.Fatalf("%s fresh: %v", v, err)
		}
		got, err := loaded.Search(req, opt)
		if err != nil {
			t.Fatalf("%s loaded: %v", v, err)
		}
		if !reflect.DeepEqual(got.Routes, want.Routes) {
			t.Fatalf("%s: loaded engine routes differ\nfresh: %+v\nloaded: %+v", v, want.Routes, got.Routes)
		}
	}
}

// TestPreV3StreamsRejected: the sequential v1/v2 layout is no longer read.
// Both headers must fail with ErrVersion and a re-bake hint in every load
// mode — never be misparsed. The v1 header has no min-reader field, so its
// section count sits where the flat layout keeps min-reader; a count of 4
// would pass for the current min-reader if the version were not checked
// first.
func TestPreV3StreamsRejected(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
	data := snapshotBytes(t, e)
	cases := []struct {
		name                string
		ver, minReaderOrNum uint16
	}{
		{"v1 with 3 sections", 1, 3},
		{"v1 with 4 sections", 1, 4},
		{"v1 with 6 sections", 1, 6},
		{"v2", 2, 2},
		{"future version declaring the sequential layout", 6, 2},
		{"future version declaring the v3 layout", 6, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), data...)
			binary.LittleEndian.PutUint16(b[8:], tc.ver)
			binary.LittleEndian.PutUint16(b[10:], tc.minReaderOrNum)
			_, err := snapshot.LoadEngine(bytes.NewReader(b))
			if !errors.Is(err, snapshot.ErrVersion) {
				t.Fatalf("LoadEngine: got %v, want ErrVersion", err)
			}
			if !strings.Contains(err.Error(), "re-bake") {
				t.Fatalf("error %q does not tell the operator to re-bake", err)
			}
			if _, err := snapshot.EngineFromFlatTrusted(b); !errors.Is(err, snapshot.ErrVersion) {
				t.Fatalf("trusted reader: got %v, want ErrVersion", err)
			}
		})
	}
}

// matxPayload lays out the retired dense-matrix section of a v3 or v4 bake
// of e: u64 n and n² f64 distances (zero here; only the layout matters),
// followed in v3 by an n² i32 parent table.
func matxPayload(e *search.Engine, parents bool) []byte {
	n := e.PathFinder().NumStates()
	b := binary.LittleEndian.AppendUint64(nil, uint64(n))
	b = append(b, make([]byte, 8*n*n)...)
	if parents {
		b = append(b, bytes.Repeat([]byte{0xff}, 4*n*n)...) // NoState everywhere
	}
	return b
}

// TestV3StreamsRejected: a v3 bake — the flat layout with a parent table
// after MATX's distances — fails with ErrVersion and a re-bake hint in both
// trust modes. Relabelled with the current header, the same bytes are
// ErrCorrupt: the v3 MATX payload is never misread.
func TestV3StreamsRejected(t *testing.T) {
	e := tinyEngine(t)
	b := snapshotBytes(t, e)
	v3 := appendSection(b, "MATX", matxPayload(e, true))
	binary.LittleEndian.PutUint16(v3[8:], 3)
	binary.LittleEndian.PutUint16(v3[10:], 3)
	_, err := snapshot.LoadEngine(bytes.NewReader(v3))
	if !errors.Is(err, snapshot.ErrVersion) || !strings.Contains(err.Error(), "re-bake") {
		t.Fatalf("LoadEngine on a v3 bake: got %v, want ErrVersion with a re-bake hint", err)
	}
	if _, err := snapshot.EngineFromFlatTrusted(v3); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("trusted reader on a v3 bake: got %v, want ErrVersion", err)
	}

	binary.LittleEndian.PutUint16(v3[8:], snapshot.Version)
	binary.LittleEndian.PutUint16(v3[10:], snapshot.MinDecodable)
	if _, err := snapshot.LoadEngine(bytes.NewReader(v3)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("LoadEngine on a relabelled v3 MATX: got %v, want ErrCorrupt", err)
	}
	if _, err := snapshot.EngineFromFlatTrusted(v3); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("trusted reader on a relabelled v3 MATX: got %v, want ErrCorrupt", err)
	}
}

// TestV4StreamsRejected: every v4 bake fails with ErrVersion and a re-bake
// hint in both trust modes — one carrying the dense matrix's MATX section,
// one carrying the oracle's ORCL and one carrying no KoE* backend — since a
// v4 bake may hold a section this build no longer reads. Relabelled with
// the current header, the MATX bake is ErrCorrupt: the tag is unknown at
// the current version.
func TestV4StreamsRejected(t *testing.T) {
	e := tinyEngine(t)
	bare := snapshotBytes(t, e)
	e.Precompute()
	bakes := map[string][]byte{
		"MATX":       appendSection(bare, "MATX", matxPayload(e, false)),
		"ORCL":       snapshotBytes(t, e),
		"no backend": bare,
	}
	for name, b := range bakes {
		v4 := append([]byte(nil), b...)
		binary.LittleEndian.PutUint16(v4[8:], 4)
		binary.LittleEndian.PutUint16(v4[10:], 4)
		_, err := snapshot.LoadEngine(bytes.NewReader(v4))
		if !errors.Is(err, snapshot.ErrVersion) || !strings.Contains(err.Error(), "re-bake") {
			t.Fatalf("LoadEngine on a v4 bake with %s: got %v, want ErrVersion with a re-bake hint", name, err)
		}
		if _, err := snapshot.EngineFromFlatTrusted(v4); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("trusted reader on a v4 bake with %s: got %v, want ErrVersion", name, err)
		}
	}

	matx := bakes["MATX"]
	if _, err := snapshot.LoadEngine(bytes.NewReader(matx)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("LoadEngine on a relabelled v4 MATX: got %v, want ErrCorrupt", err)
	}
	if _, err := snapshot.EngineFromFlatTrusted(matx); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("trusted reader on a relabelled v4 MATX: got %v, want ErrCorrupt", err)
	}
}

type section struct {
	tag  string
	body []byte
}

// sections splits a flat stream into its directory's sections.
func sections(b []byte) []section {
	var secs []section
	for i := 0; i < int(binary.LittleEndian.Uint16(b[12:])); i++ {
		e := b[16+24*i:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		secs = append(secs, section{string(e[:4]), b[off : off+length]})
	}
	return secs
}

// relayout lays secs out as a flat stream behind the 16-byte header hdr,
// with the section count, every offset and every CRC recomputed.
func relayout(hdr []byte, secs []section) []byte {
	out := append([]byte(nil), hdr[:16]...)
	binary.LittleEndian.PutUint16(out[12:], uint16(len(secs)))
	off := (16 + 24*len(secs) + 7) &^ 7
	for _, s := range secs {
		out = append(out, s.tag...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.body))
		out = binary.LittleEndian.AppendUint64(out, uint64(off))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.body)))
		off = (off + len(s.body) + 7) &^ 7
	}
	for _, s := range secs {
		for len(out)%8 != 0 {
			out = append(out, 0)
		}
		out = append(out, s.body...)
	}
	return out
}

// appendSection re-lays a flat stream with one more section at the end of
// the directory.
func appendSection(b []byte, tag string, payload []byte) []byte {
	return relayout(b[:16], append(sections(b), section{tag, payload}))
}

// TestDecodeFutureVersion checks the forward-compatibility promise: a
// stream from a future version remains readable as long as it declares a
// min-reader this build satisfies, with unknown sections skipped — but
// their checksums still verified by the untrusted reader.
func TestDecodeFutureVersion(t *testing.T) {
	e := tinyEngine(t)
	e.Precompute()
	base := snapshotBytes(t, e)

	future := appendSection(base, "ZZZZ", []byte("from the future"))
	future[8], future[9] = 6, 0 // version 6, min-reader stays 4
	loaded, err := snapshot.LoadEngine(bytes.NewReader(future))
	if err != nil {
		t.Fatalf("LoadEngine future version: %v", err)
	}
	if loaded.DistanceSourceIfReady() == nil {
		t.Fatal("future-version stream lost its ORCL section")
	}
	if _, err := snapshot.EngineFromFlatTrusted(future); err != nil {
		t.Fatalf("trusted reader on a future version: %v", err)
	}

	// Same stream at the current version: unknown tags are corruption.
	strict := appendSection(base, "ZZZZ", []byte("from the future"))
	if _, err := snapshot.LoadEngine(bytes.NewReader(strict)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("unknown section at current version: got %v, want ErrCorrupt", err)
	}
	if _, err := snapshot.EngineFromFlatTrusted(strict); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("trusted reader, unknown section at current version: got %v, want ErrCorrupt", err)
	}

	// Skipped sections still fail closed on checksum damage.
	damaged := append([]byte(nil), future...)
	damaged[len(damaged)-1] ^= 0xff
	if _, err := snapshot.LoadEngine(bytes.NewReader(damaged)); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("damaged skipped section: got %v, want ErrChecksum", err)
	}
}
