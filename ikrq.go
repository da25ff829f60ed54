// Package ikrq is the public API of the IKRQ library, a reproduction of
// "Indoor Top-k Keyword-aware Routing Query" (Feng, Liu, Li, Lu, Shou, Xu —
// ICDE 2020). Given two indoor points, a distance constraint Δ and a list
// of query keywords, an IKRQ returns the k best start-to-terminal routes
// ranked by a combination of keyword relevance and spatial distance, with
// prime routes guaranteeing result diversity.
//
// The package re-exports the building blocks:
//
//   - indoor space modelling (partitions, doors, stairways) via SpaceBuilder,
//   - two-level indoor keywords (i-words and t-words) via KeywordBuilder,
//   - the query engine with the paper's two search algorithms (ToE and KoE)
//     and all ablation variants via Engine, including the pooled concurrent
//     batch front-end Engine.SearchBatch,
//   - the evaluation-scale data generators via NewSyntheticMall and
//     NewRealMall.
//
// Quick start:
//
//	b := ikrq.NewSpaceBuilder()
//	hall := b.AddPartition("hall", ikrq.KindHallway, ikrq.Rect(0, 0, 30, 10, 0))
//	shop := b.AddPartition("espresso-bar", ikrq.KindRoom, ikrq.Rect(10, 10, 20, 20, 0))
//	b.AddDoor(ikrq.At(15, 10, 0), hall, shop)
//	space, _ := b.Build()
//
//	kb := ikrq.NewKeywordBuilder(space.NumPartitions())
//	kb.AssignPartition(shop, kb.DefineIWord("espresso-bar", []string{"coffee", "latte"}))
//	index, _ := kb.Build()
//
//	engine := ikrq.NewEngine(space, index)
//	res, _ := engine.Search(ikrq.Request{
//	    Ps: ikrq.At(2, 5, 0), Pt: ikrq.At(28, 5, 0),
//	    Delta: 60, QW: []string{"coffee"}, K: 3, Alpha: 0.5, Tau: 0.2,
//	}, ikrq.Options{Algorithm: ikrq.ToE})
//
// # Snapshots
//
// Building an engine derives the whole index layer — the state-graph
// pathfinder, the skeleton lower bounds and (for KoE*) a precomputed
// distance backend — which is wasted work when the same space is served on
// every process start. SaveSnapshot persists a built engine's index layer
// to a versioned binary container and LoadEngine assembles a serving
// engine from it without recomputation:
//
//	var buf bytes.Buffer
//	_ = ikrq.SaveSnapshot(&buf, engine) // bake once …
//	engine2, _ := ikrq.LoadEngine(&buf) // … load everywhere
//
// A loaded engine returns results identical to a freshly built one.
//
// # Eager vs. lazy KoE* distance backend
//
// The KoE* variant routes over a precomputed distance backend: the dense
// all-pairs matrix on small venues (exact everywhere, Θ(states²)
// resident), the hierarchical oracle on large ones (near-linear resident;
// see DESIGN.md §10). By default an engine builds the size-appropriate
// backend lazily on the first KoE* query: workloads that never run KoE*
// pay nothing, but that first query absorbs the full build sweep.
// Engine.Precompute forces it eagerly (PrecomputeMatrix and
// PrecomputeOracle pick a specific kind) — call one at service start-up to
// keep construction cost out of serving latency, and before SaveSnapshot
// to bake the backend into the snapshot so loaded engines never compute it
// at all. SaveSnapshot includes the backend
// section exactly when the engine has built one.
//
// # Live venue conditions
//
// Real venues are not static: shops close after hours, corridors get
// blocked for maintenance, security gates queue. A Conditions overlay
// describes such a situation — a set of closed doors plus per-door
// traversal penalties in walking meters — and rides on the Request, so
// every query can see a different live state of the same engine without
// rebuilding anything:
//
//	cond := ikrq.NewConditions().Close(12, 40).Delay(7, 30)
//	res, _ := engine.Search(ikrq.Request{ ..., Conditions: cond }, opt)
//
// Closures only remove edges and penalties only increase costs, so the
// statically precomputed lower bounds (skeleton, KoE* backend) remain
// admissible and the search stays exact: with an overlay of closures the
// results are identical to a freshly built engine whose space omits those
// doors, and reported route distances include every penalty paid. See
// DESIGN.md §7 for the admissibility argument.
//
// # Result caching
//
// Serving workloads repeat themselves — the same storefront query from
// every visitor near the same entrance — and an IKRQ search is pure: the
// result depends only on the request, the options and the engine's
// immutable index layer. Engine.EnableResultCache adds a bounded
// (entry-count and byte-budget LRU), concurrency-safe cache keyed by a
// fingerprint of the full request, including the Conditions overlay, that
// route and sequence queries share. Keywords are keyed in request order,
// because a result's sims follow it: a repeat with reordered keywords
// misses, and a hit returns the stored result without a copy, byte-identical
// to what the search would have produced. The overlay is keyed as the set it
// is — door order, duplicate closures and zero-valued penalties do not
// change the key. Concurrent identical misses collapse to one run
// (singleflight), and Engine.SetPopularity invalidates the cache in O(1) by
// bumping its epoch:
//
//	engine.EnableResultCache(ikrq.CacheOptions{}) // defaults: 4096 entries, 64 MiB
//	res, _ := engine.Search(req, opt)             // first call runs the searcher
//	res, _ = engine.Search(req, opt)              // served from cache
//
// Cached results are shared: treat every Result from a cache-enabled
// engine as read-only. cmd/ikrqd enables the cache per venue by default
// (-cache-entries, -cache-bytes, -cache-off).
//
// # Sequence queries
//
// A plain IKRQ ranks routes that cover a bag of keywords in any order. A
// sequence query instead prescribes an ordered itinerary — "coffee, then a
// phone shop, then a pharmacy" — as a list of keyword legs, and
// Engine.SearchSequence returns the k best routes that visit one matching
// waypoint per leg in exactly that order:
//
//	res, _ := engine.SearchSequence(ikrq.SequenceRequest{
//	    Ps: ps, Pt: pt, Delta: 900, K: 5, Alpha: 0.5, Tau: 0.2,
//	    Legs: []ikrq.SequenceLeg{
//	        {QW: []string{"coffee"}},
//	        {QW: []string{"phone"}},
//	    },
//	})
//
// The planner chains one targeted shortest-path stage per leg over a
// pruned waypoint frontier and is exact: results are identical to scoring
// every waypoint combination exhaustively (DESIGN.md §14 has the
// argument). SequenceRequest.Beam trades that guarantee for bounded work
// on very wide venues; truncation is reported, never silent. Sequence
// searches ride the same result cache, Conditions overlays and
// SearchSequenceContext cancellation as plain queries.
//
// # Serving
//
// The serving layer keeps baked snapshots resident and answers queries
// over HTTP (see cmd/ikrqd and DESIGN.md §9). A VenueRegistry maps venue
// names to lazily loaded, refcounted engines with an optional LRU cap, and
// NewServer wraps it with the HTTP surface — admission control, per-query
// deadlines, /debug/vars counters and graceful drain:
//
//	reg := ikrq.NewVenueRegistry(0)
//	_ = reg.Add(ikrq.VenueConfig{Name: "mall", Path: "mall.ikrq", Warm: true})
//	srv := ikrq.NewServer(reg, ikrq.ServerConfig{})
//	go srv.ListenAndServe(":8080")
//
// Programmatic clients embed the same wire DTOs (QueryRequest,
// QueryResponse) the daemon speaks. The v1 endpoint serves route queries
// only; the versioned v2 surface adds sequence queries behind one
// discriminated envelope plus a per-venue conditions bus — publish a
// Conditions revision and subscribed clients are pushed a re-route the
// moment their answer changes (README "API v2", DESIGN.md §14). In-process
// callers that need cancellation or deadlines without HTTP use
// Engine.SearchContext, which aborts between expansion batches once the
// context is done.
//
// # Configuration
//
// Every tunable in the package follows the same rule: the zero value picks
// a production-safe default, so empty struct literals are always valid.
//
//   - ServerConfig{}: 4×GOMAXPROCS in-flight queries, 10s query deadline,
//     1 MiB body cap, 300k expansion work cap, 64 bus subscribers, 5m
//     subscribe stream lifetime, path overrides on reload rejected.
//   - CacheOptions{}: 4096 entries, 64 MiB budget.
//   - BatchOptions{}: worker pool sized to GOMAXPROCS.
//   - Options{}: plain ToE with every pruning rule on; OptionsFor
//     resolves Table III variant names instead of hand-setting switches.
//   - Request / SequenceRequest: zero Beam means exact search; Delta
//     (absolute meters) must be positive — there is no default distance
//     budget, because one cannot be venue-agnostic. (The wire's η factor
//     is resolved to a Delta by the serving layer.)
//
// Command-line front-ends (cmd/ikrqd, cmd/ikrq) expose the same knobs as
// flags and never override these defaults silently.
package ikrq

import (
	"io"

	"ikrq/internal/gen"
	"ikrq/internal/geom"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/server"
	"ikrq/internal/snapshot"
)

// Geometry.
type (
	// Point is an indoor location: planar coordinates plus a floor.
	Point = geom.Point
)

// At constructs a Point.
func At(x, y float64, floor int) Point { return geom.Pt(x, y, floor) }

// Rect constructs a partition extent (an axis-aligned rectangle on one
// floor); corners are normalized.
func Rect(x0, y0, x1, y1 float64, floor int) geom.Rect { return geom.R(x0, y0, x1, y1, floor) }

// Indoor space model.
type (
	// Space is an immutable indoor space of partitions and doors.
	Space = model.Space
	// SpaceBuilder assembles a Space.
	SpaceBuilder = model.Builder
	// PartitionID identifies a partition.
	PartitionID = model.PartitionID
	// DoorID identifies a door.
	DoorID = model.DoorID
	// PartitionKind classifies partitions (room / hallway / staircase).
	PartitionKind = model.PartitionKind
	// Conditions is a per-query live-venue overlay: closed doors plus
	// additive per-door traversal penalties, applied at query time against
	// the unchanged index (see the package docs, "Live venue conditions").
	Conditions = model.Conditions
)

// Partition kinds.
const (
	KindRoom      = model.KindRoom
	KindHallway   = model.KindHallway
	KindStaircase = model.KindStaircase
)

// NewSpaceBuilder returns an empty space builder.
func NewSpaceBuilder() *SpaceBuilder { return model.NewBuilder() }

// NewConditions returns an empty live-venue overlay; chain Close and Delay
// to describe closures and congestion, then attach it to a Request:
//
//	cond := ikrq.NewConditions().Close(atriumDoor).Delay(gateDoor, 45)
//	res, _ := engine.Search(ikrq.Request{ ..., Conditions: cond }, opt)
func NewConditions() *Conditions { return model.NewConditions() }

// Keyword layer.
type (
	// KeywordIndex organizes a space's i-words and t-words with the P2I,
	// I2P, I2T and T2I mappings.
	KeywordIndex = keyword.Index
	// KeywordBuilder assembles a KeywordIndex.
	KeywordBuilder = keyword.IndexBuilder
	// IWordID identifies an identity word.
	IWordID = keyword.IWordID
)

// NewKeywordBuilder returns a keyword builder for a space with the given
// partition count.
func NewKeywordBuilder(numPartitions int) *KeywordBuilder {
	return keyword.NewIndexBuilder(numPartitions)
}

// Query engine.
type (
	// Engine runs IKRQ queries against one space + keyword index. Besides
	// Search and SearchBatch it exposes the index-layer seams used by
	// snapshotting: Engine.Precompute forces the size-appropriate KoE*
	// distance backend eagerly (see the package docs for the eager-vs-lazy
	// tradeoff), and SaveSnapshot / LoadEngine persist and restore the
	// whole index layer.
	Engine = search.Engine
	// Request is one IKRQ(ps, pt, Δ, QW, k) instance with the scoring
	// parameters α and τ.
	Request = search.Request
	// Options selects the algorithm and ablation switches.
	Options = search.Options
	// BatchOptions configures the concurrent fan-out of Engine.SearchBatch,
	// which runs many requests over a worker pool sharing one engine and
	// returns results identical to a serial Search loop.
	BatchOptions = search.BatchOptions
	// Result is a ranked list of routes plus search statistics.
	Result = search.Result
	// Route is one returned route.
	Route = search.Route
	// Stats reports the cost of a search run.
	Stats = search.Stats
	// Algorithm selects the expansion strategy.
	Algorithm = search.Algorithm
	// Variant names the paper's algorithm configurations (Table III).
	Variant = search.Variant
	// CacheOptions bounds a result cache enabled with
	// Engine.EnableResultCache (see the package docs, "Result caching").
	CacheOptions = search.CacheOptions
	// ResultCache is a per-engine bounded cache of immutable search results
	// keyed by a request fingerprint.
	ResultCache = search.ResultCache
	// ResultCacheStats is one consistent snapshot of a ResultCache's
	// monotonic counters.
	ResultCacheStats = search.CacheStats
)

// Sequence queries (see the package docs, "Sequence queries").
type (
	// SequenceRequest is one ordered-itinerary query for
	// Engine.SearchSequence: the geometry and scoring parameters of a
	// Request plus keyword legs visited in order.
	SequenceRequest = search.SequenceRequest
	// SequenceLeg is one itinerary stop: the keywords a waypoint must match.
	SequenceLeg = search.SequenceLeg
	// SequenceResult is a ranked list of sequence routes plus planner
	// statistics.
	SequenceResult = search.SequenceResult
	// SequenceRoute is one returned itinerary route with its per-leg
	// relevance breakdown.
	SequenceRoute = search.SequenceRoute
	// SequenceStats reports the cost of a sequence planner run.
	SequenceStats = search.SequenceStats
)

// MaxSequenceLegs bounds the legs a SequenceRequest may carry.
const MaxSequenceLegs = search.MaxSequenceLegs

// Expansion strategies.
const (
	// ToE is the topology-oriented expansion (Algorithm 2).
	ToE = search.ToE
	// KoE is the keyword-oriented expansion (Algorithm 6).
	KoE = search.KoE
)

// NewEngine builds a query engine, deriving the index layer (state graph,
// skeleton lower bounds) from scratch. To reuse a previously built index
// layer, bake it with SaveSnapshot and assemble engines with LoadEngine.
func NewEngine(s *Space, x *KeywordIndex) *Engine { return search.NewEngine(s, x) }

// SaveSnapshot writes the engine's immutable index layer — space, keyword
// index, state graph, skeleton, and the KoE* distance backend if the
// engine has built one (call Engine.Precompute first to force it) — to w
// in the current (v3, flat) snapshot format, which OpenEngine can serve
// zero-copy over an mmap (see internal/snapshot and DESIGN.md §6, §13).
func SaveSnapshot(w io.Writer, e *Engine) error { return snapshot.SaveEngine(w, e) }

// LoadEngine assembles a ready-to-serve engine from a snapshot written by
// SaveSnapshot, skipping all index derivation. It reads the whole stream
// onto the heap and checks everything: every section checksum, every
// table value, and the space topology replayed through the model builder,
// so it doubles as the bit-rot check for a bake. Corrupt, truncated, older
// (pre-v3, which must be re-baked) or newer-versioned input is rejected
// with an error. A loaded engine returns results identical to one freshly
// built over the same space and keyword index.
func LoadEngine(r io.Reader) (*Engine, error) { return snapshot.LoadEngine(r) }

// OpenEngine assembles a serving engine from a snapshot file, serving it as
// views over an mmap where the platform supports it: cold start touches
// only the pages actually read, and concurrent processes serving the same
// bake share one page-cache copy. The mapped load is trusted — it keeps
// every structural check but skips the checksums and value scans of the
// bulk tables (see DESIGN.md §13); where mmap is unavailable, and on
// big-endian hosts, it loads with LoadEngine's full checks instead. The
// engine owns the mapping; call Engine.Close when it stops serving.
func OpenEngine(path string) (*Engine, error) { return snapshot.OpenEngine(path) }

// OptionsFor returns the Options for a Table III variant name such as
// "ToE", "KoE", "ToE\\D" or "KoE*".
func OptionsFor(v Variant) (Options, error) { return search.OptionsFor(v) }

// Variants lists all comparable methods of Table III.
func Variants() []Variant { return search.Variants() }

// Serving layer (cmd/ikrqd; see the package docs, "Serving").
type (
	// VenueRegistry maps venue names to lazily loaded, refcounted engines
	// with an optional LRU residency cap.
	VenueRegistry = server.Registry
	// VenueConfig names one servable snapshot.
	VenueConfig = server.VenueConfig
	// VenueHandle is a counted reference to a loaded venue engine; Release
	// it when the query finishes.
	VenueHandle = server.Handle
	// Server is the HTTP serving layer over a VenueRegistry.
	Server = server.Server
	// ServerConfig tunes admission control, deadlines and work caps; the
	// zero value picks production-safe defaults.
	ServerConfig = server.Config
	// QueryRequest is the JSON body of POST /v1/venues/{venue}/query.
	QueryRequest = server.QueryRequest
	// QueryResponse is the JSON body of a successful query.
	QueryResponse = server.QueryResponse
	// RouteWire is one route of a QueryResponse.
	RouteWire = server.RouteWire
	// ConditionsWire is the live-conditions overlay on the wire.
	ConditionsWire = server.ConditionsWire
	// PointWire is an indoor point on the wire.
	PointWire = server.PointWire

	// RouteRequestV2 is the route arm of the v2 query envelope
	// (POST /v2/venues/{venue}/query with "type": "route").
	RouteRequestV2 = server.RouteRequestV2
	// SequenceRequestV2 is the sequence arm of the v2 query envelope
	// ("type": "sequence").
	SequenceRequestV2 = server.SequenceRequestV2
	// SequenceLegWire is one itinerary leg on the wire.
	SequenceLegWire = server.SequenceLegWire
	// SequenceResponse is the JSON body of a successful v2 sequence query.
	SequenceResponse = server.SequenceResponse
	// ConditionsPublishResponse answers PUT /v2/venues/{venue}/conditions.
	ConditionsPublishResponse = server.ConditionsPublishResponse
)

// NewVenueRegistry returns an empty venue registry; maxResident caps how
// many engines stay loaded at once (0: unlimited), evicting the
// least-recently-used idle venue past the cap.
func NewVenueRegistry(maxResident int) *VenueRegistry { return server.NewRegistry(maxResident) }

// NewServer builds the HTTP serving layer over a registry.
func NewServer(reg *VenueRegistry, cfg ServerConfig) *Server { return server.New(reg, cfg) }

// Data generators (Section V workloads).
type (
	// Mall is a generated indoor space with room/hallway bookkeeping.
	Mall = gen.Mall
	// Vocabulary is a generated brand/keyword catalogue.
	Vocabulary = gen.Vocabulary
	// QueryGen draws IKRQ instances against a generated mall.
	QueryGen = gen.QueryGen
	// QueryConfig holds the workload parameters of Table IV.
	QueryConfig = gen.QueryConfig
	// GridConfig parameterizes the floorplan generator.
	GridConfig = gen.GridConfig
)

// NewSyntheticMall builds the paper's synthetic evaluation space (141
// partitions and 220 doors per floor) with the generated keyword catalogue
// attached.
func NewSyntheticMall(floors int, seed uint64) (*Mall, *Vocabulary, *KeywordIndex, error) {
	return gen.SyntheticMall(floors, seed)
}

// NewRealMall builds the simulated seven-floor Hangzhou mall of Section
// V-B: 639 category-clustered stores and Hangzhou-like keyword statistics.
func NewRealMall(seed uint64) (*Mall, *Vocabulary, *KeywordIndex, error) {
	return gen.RealMall(gen.RealConfig{Seed: seed})
}

// NewQueryGen builds a query generator over a generated mall. Pass the
// engine built for the same mall so the generator can reuse its distance
// structures.
func NewQueryGen(m *Mall, x *KeywordIndex, v *Vocabulary, e *Engine, seed uint64) *QueryGen {
	return gen.NewQueryGen(m, x, v, e.PathFinder(), seed)
}

// DefaultQueryConfig returns Table IV's default workload parameters.
func DefaultQueryConfig(seed uint64) QueryConfig { return gen.DefaultQueryConfig(seed) }
