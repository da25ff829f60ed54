package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"ikrq/internal/gen"
	"ikrq/internal/geom"
	"ikrq/internal/keyword"
	"ikrq/internal/model"
	"ikrq/internal/search"
	"ikrq/internal/server"
)

// venueName is the single venue every workload's daemon serves.
const venueName = "v"

// venueSeed fixes every workload's venue: the venue is the fixture and
// -seed varies the request streams. Keyword layouts drawn from different
// seeds move KoE* cost by more than the benchmark's bounds, which would
// drown the change a run is meant to detect.
const venueSeed = 1

// maxExpansions mirrors ikrqd's default per-query work cap, so the checker's
// in-process recomputation runs under the same bound as the daemon.
const maxExpansions = 300000

type opKind uint8

const (
	opRoute opKind = iota
	opSequence
	opPublish
)

func (k opKind) String() string {
	return [...]string{"route", "sequence", "publish"}[k]
}

// op is one request of a workload stream: the bytes sent, plus what the
// checker needs to recompute its answer in process.
type op struct {
	kind   opKind
	due    time.Duration // open-loop send time from the phase start
	method string
	path   string
	body   []byte

	variant  search.Variant
	route    *search.Request
	seq      *search.SequenceRequest
	explicit bool // carries its own conditions overlay (ignores the bus)
	key      int  // answer memo key: equal keys share answers per revision; -1 distinct
	rev      uint64
}

// streams is one generated workload instance.
type streams struct {
	open     []op // the timed open loop, sorted by due
	capacity []op // the closed-loop capacity phase, in send order
	warm     op   // the first query the set-up measurement waits for

	// The conditions bus: a subscriber envelope and the revisions published
	// against it (revision r closes closeDoor when r is odd, clears when even).
	subscriber *op
	closeDoor  model.DoorID

	mix      string
	poolSize int // distinct requests the stream draws from (0: all distinct)
}

// conditionsAt returns the overlay the bus holds at revision rev.
func (s *streams) conditionsAt(rev uint64) *model.Conditions {
	if s.subscriber == nil || rev%2 == 0 {
		return nil
	}
	return model.NewConditions().Close(s.closeDoor)
}

// venue bundles a generated venue with the heap engine that bakes it.
type venue struct {
	mall  *gen.Mall
	vocab *gen.Vocabulary
	index *keyword.Index
	eng   *search.Engine
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string

	// rate is the fixed open-loop arrival rate (queries per second), set
	// once to about half the closed-loop capacity measured on a 2-CPU box.
	rate float64
	// capRate sizes the pre-generated capacity stream (a generous upper
	// bound of the closed-loop rate; the phase stops early if it runs out).
	capRate float64
	// sse reserves one of the nproc connections for the SSE subscriber.
	sse bool

	describe string
	build    func(seed uint64) (*gen.Mall, *gen.Vocabulary, *keyword.Index, error)
	generate func(v *venue, seed uint64, rate float64, nOpen, nCap int, openDur time.Duration) (*streams, error)
}

var workloads = []*workload{
	{
		name:     "mall-distinct",
		why:      "all-distinct ToE/KoE*/sequence mix on the paper's 7-floor real mall: every request misses the result cache, so search and keyword dominate",
		rate:     60,
		capRate:  700,
		describe: "gen.RealMall (7 floors, dense matrix backend)",
		build: func(seed uint64) (*gen.Mall, *gen.Vocabulary, *keyword.Index, error) {
			return gen.RealMall(gen.RealConfig{Seed: seed})
		},
		generate: genMallDistinct,
	},
	{
		name:     "tower-koestar",
		why:      "all-distinct KoE* on an 8-floor mega venue served by the hub-label oracle: oracle Dist, LazyTree path recovery and the heavy tail dominate",
		rate:     45,
		capRate:  600,
		describe: "gen.MegaMall(8, 96) (hub-label oracle backend)",
		build: func(seed uint64) (*gen.Mall, *gen.Vocabulary, *keyword.Index, error) {
			return gen.MegaMall(8, 96, seed)
		},
		generate: genTowerKoEStar,
	},
	{
		name:     "zipf-live",
		why:      "Zipf reads over a 64-request pool that fits the result cache, plus periodic conditions publishes that invalidate it and push one re-route over SSE",
		rate:     300,
		capRate:  4000,
		sse:      true,
		describe: "gen.SyntheticMall(2) (dense matrix backend)",
		build: func(seed uint64) (*gen.Mall, *gen.Vocabulary, *keyword.Index, error) {
			return gen.SyntheticMall(2, seed)
		},
		generate: genZipfLive,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// genParallel draws n items with two independently seeded generators, one
// per half, so a seed always yields the same stream whatever the timing.
func genParallel[T any](n int, draw func(part, count int) ([]T, error)) ([]T, error) {
	const parts = 2
	out := make([][]T, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		count := n / parts
		if p == 0 {
			count += n % parts
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if count > 0 {
				out[p], errs[p] = draw(p, count)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return slices.Concat(out...), nil
}

// routeQueries draws n Table IV default route queries (k=7, |QW|=4,
// δs2t=1500 m, η=1.6) with gen.QueryGen.
func routeQueries(v *venue, seed uint64, n int) ([]search.Request, error) {
	return genParallel(n, func(part, count int) ([]search.Request, error) {
		s := seed*4 + uint64(part) + 1
		qg := gen.NewQueryGen(v.mall, v.index, v.vocab, v.eng.PathFinder(), s)
		cfg := gen.DefaultQueryConfig(s)
		cfg.Instances = count
		return qg.Instances(cfg)
	})
}

// sequenceQueries draws n sequence queries with gen.Sampler at
// DefaultSequenceSampleConfig.
func sequenceQueries(v *venue, seed uint64, n int) ([]search.SequenceRequest, error) {
	return genParallel(n, func(part, count int) ([]search.SequenceRequest, error) {
		smp := gen.NewSampler(v.eng.Space(), v.eng.Keywords(), v.eng.PathFinder(), seed*4+uint64(part)+3)
		return smp.SequenceInstances(count, gen.DefaultSequenceSampleConfig())
	})
}

func pointWire(p geom.Point) server.PointWire {
	return server.PointWire{X: p.X, Y: p.Y, Floor: p.Floor}
}

func conditionsWire(c *model.Conditions) *server.ConditionsWire {
	if c.Empty() {
		return nil
	}
	out := &server.ConditionsWire{}
	for _, d := range c.ClosedDoors() {
		out.Close = append(out.Close, int(d))
	}
	for _, d := range c.DelayedDoors() {
		if out.Delay == nil {
			out.Delay = make(map[int]float64)
		}
		out.Delay[int(d)] = c.Penalty(d)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every wire type here is plain data
	}
	return b
}

// routeOp builds a route query on the v1 path or in the v2 envelope.
func routeOp(req search.Request, variant search.Variant, v2 bool) op {
	cw := conditionsWire(req.Conditions)
	if cw == nil {
		req.Conditions = nil // an empty overlay runs under the bus, like none
	}
	q := server.QueryRequest{
		Start:      pointWire(req.Ps),
		Terminal:   pointWire(req.Pt),
		Keywords:   req.QW,
		K:          req.K,
		Delta:      req.Delta,
		Alpha:      req.Alpha,
		Tau:        req.Tau,
		Variant:    string(variant),
		Conditions: cw,
	}
	o := op{kind: opRoute, method: "POST", variant: variant, route: &req, explicit: cw != nil, key: -1}
	if v2 {
		o.path = "/v2/venues/" + venueName + "/query"
		o.body = mustJSON(server.RouteRequestV2{Type: "route", QueryRequest: q})
	} else {
		o.path = "/v1/venues/" + venueName + "/query"
		o.body = mustJSON(q)
	}
	return o
}

func sequenceOp(req search.SequenceRequest) op {
	cw := conditionsWire(req.Conditions)
	if cw == nil {
		req.Conditions = nil
	}
	legs := make([]server.SequenceLegWire, len(req.Legs))
	for i, l := range req.Legs {
		legs[i] = server.SequenceLegWire{Keywords: l.QW}
	}
	q := server.SequenceRequestV2{
		Type:       "sequence",
		Start:      pointWire(req.Ps),
		Terminal:   pointWire(req.Pt),
		Legs:       legs,
		K:          req.K,
		Delta:      req.Delta,
		Alpha:      req.Alpha,
		Tau:        req.Tau,
		Beam:       req.Beam,
		Conditions: cw,
	}
	return op{
		kind: opSequence, method: "POST", path: "/v2/venues/" + venueName + "/query",
		body: mustJSON(q), seq: &req, explicit: cw != nil, key: -1,
	}
}

// schedule spaces ops evenly at rate per second from time zero.
func schedule(ops []op, rate float64) {
	for i := range ops {
		ops[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
}

// shuffleDistinct orders a distinct stream's open-loop and capacity parts
// by seed. The request sets themselves are fixtures drawn from venueSeed:
// the p99 of about a thousand heavy-tailed queries moved by ±20% with the
// draw, more than the bounds allow.
func shuffleDistinct(st *streams, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, part := range [][]op{st.open, st.capacity} {
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
}

// genMallDistinct: 40% ToE, 40% KoE*, 20% sequence, all distinct; route
// queries alternate between the v1 path and the v2 envelope.
func genMallDistinct(v *venue, seed uint64, rate float64, nOpen, nCap int, _ time.Duration) (*streams, error) {
	n := nOpen + nCap
	rng := rand.New(rand.NewSource(int64(venueSeed)))
	kinds := make([]int, n) // 0 ToE, 1 KoE*, 2 sequence
	nSeq := 0
	for i := range kinds {
		switch p := rng.Float64(); {
		case p < 0.4:
			kinds[i] = 0
		case p < 0.8:
			kinds[i] = 1
		default:
			kinds[i] = 2
			nSeq++
		}
	}
	routes, err := routeQueries(v, venueSeed, n-nSeq+1)
	if err != nil {
		return nil, err
	}
	seqs, err := sequenceQueries(v, venueSeed, nSeq)
	if err != nil {
		return nil, err
	}
	st := &streams{mix: "40% ToE, 40% KoE*, 20% sequence; routes alternate v1/v2; all distinct"}
	st.warm = routeOp(routes[0], search.VariantToE, false)
	routes = routes[1:]
	ops := make([]op, n)
	ri, si := 0, 0
	for i, k := range kinds {
		switch k {
		case 2:
			ops[i] = sequenceOp(seqs[si])
			si++
		default:
			variant := search.VariantToE
			if k == 1 {
				variant = search.VariantKoEStar
			}
			ops[i] = routeOp(routes[ri], variant, ri%2 == 1)
			ri++
		}
	}
	st.open, st.capacity = ops[:nOpen], ops[nOpen:]
	shuffleDistinct(st, seed)
	schedule(st.open, rate)
	return st, nil
}

// genTowerKoEStar: all-distinct KoE* route queries, alternating v1/v2.
func genTowerKoEStar(v *venue, seed uint64, rate float64, nOpen, nCap int, _ time.Duration) (*streams, error) {
	n := nOpen + nCap
	routes, err := routeQueries(v, venueSeed, n+1)
	if err != nil {
		return nil, err
	}
	st := &streams{mix: "100% KoE* routes, alternating v1/v2; all distinct"}
	st.warm = routeOp(routes[0], search.VariantToE, false)
	ops := make([]op, n)
	for i, r := range routes[1:] {
		ops[i] = routeOp(r, search.VariantKoEStar, i%2 == 1)
	}
	st.open, st.capacity = ops[:nOpen], ops[nOpen:]
	shuffleDistinct(st, seed)
	schedule(st.open, rate)
	return st, nil
}

// Zipf-live shape: the read pool, its skew, and the publish period.
const (
	zipfPool   = 64
	zipfSkew   = 1.4
	publishGap = 200 * time.Millisecond
)

// genZipfLive: Zipf(s=1.4) reads over a 64-entry pool of v1 and v2 routes
// with every eighth entry a v2 sequence (every fourth an explicit overlay),
// interleaved with a conditions publish every publishGap that alternately
// closes a door on the subscriber's best route and clears the overlay. The
// pool, like the venue, is a fixture drawn from venueSeed: with only 64
// requests, which ones are hot moves miss cost by more than the bounds, so
// -seed varies the draw sequence instead.
func genZipfLive(v *venue, seed uint64, rate float64, nOpen, nCap int, openDur time.Duration) (*streams, error) {
	nSeq := zipfPool / 8
	routes, err := routeQueries(v, venueSeed, zipfPool-nSeq+8)
	if err != nil {
		return nil, err
	}
	seqs, err := sequenceQueries(v, venueSeed, nSeq)
	if err != nil {
		return nil, err
	}
	st := &streams{
		mix:      fmt.Sprintf("Zipf s=%.1f reads over %d requests (every 8th a v2 sequence, the rest alternating v1/v2 ToE/KoE/KoE* routes; every 4th with an explicit overlay) + one publish per %v", zipfSkew, zipfPool, publishGap),
		poolSize: zipfPool,
	}

	// The subscriber: the first spare route query whose best route has a
	// door that can close without cutting the venue apart.
	closable := make(map[model.DoorID]bool)
	for _, d := range gen.RebuildableClosures(v.eng.Space()) {
		closable[d] = true
	}
	opt, err := search.OptionsFor(search.VariantToE)
	if err != nil {
		return nil, err
	}
	spare := routes[zipfPool-nSeq:]
	for _, r := range spare[1:] {
		res, err := v.eng.Search(r, opt)
		if err != nil {
			return nil, err
		}
		if len(res.Routes) == 0 {
			continue
		}
		if j := slices.IndexFunc(res.Routes[0].Doors, func(d model.DoorID) bool { return closable[d] }); j >= 0 {
			sub := routeOp(r, search.VariantToE, true)
			st.subscriber = &sub
			st.closeDoor = res.Routes[0].Doors[j]
			st.warm = routeOp(spare[0], search.VariantToE, false)
			break
		}
	}
	if st.subscriber == nil {
		return nil, fmt.Errorf("zipf-live: no spare query has a closable door on its best route")
	}

	variants := []search.Variant{search.VariantToE, search.VariantKoE, search.VariantKoEStar}
	pool := make([]op, zipfPool)
	ri, si := 0, 0
	for i := range pool {
		var overlay *model.Conditions
		if i%4 == 1 {
			overlay = gen.SampleConditions(v.eng.Space(), venueSeed+uint64(i), gen.ConditionsConfig{
				Closures: 1, Delays: 2, MinDelay: 5, MaxDelay: 30, Rebuildable: true,
			})
		}
		if i%8 == 7 {
			r := seqs[si]
			si++
			r.Conditions = overlay
			pool[i] = sequenceOp(r)
		} else {
			r := routes[ri]
			ri++
			r.Conditions = overlay
			pool[i] = routeOp(r, variants[ri%len(variants)], ri%2 == 0)
		}
		pool[i].key = i
	}

	zipf := rand.NewZipf(rand.New(rand.NewSource(int64(seed))), zipfSkew, 1, zipfPool-1)
	draw := func(n int) []op {
		out := make([]op, n)
		for i := range out {
			out[i] = pool[zipf.Uint64()]
		}
		return out
	}
	publish := func(rev uint64, due time.Duration) op {
		body := []byte("{}")
		if rev%2 == 1 {
			body = mustJSON(server.ConditionsWire{Close: []int{int(st.closeDoor)}})
		}
		return op{
			kind: opPublish, due: due, method: "PUT",
			path: "/v2/venues/" + venueName + "/conditions", body: body, key: -1, rev: rev,
		}
	}
	reads := draw(nOpen)
	schedule(reads, rate)
	nPub := int(openDur / publishGap)
	st.open = make([]op, 0, len(reads)+nPub)
	ri = 0
	for j := 1; j <= nPub; j++ {
		due := time.Duration(j)*publishGap - publishGap/2
		for ri < len(reads) && reads[ri].due < due {
			st.open = append(st.open, reads[ri])
			ri++
		}
		st.open = append(st.open, publish(uint64(j), due))
	}
	st.open = append(st.open, reads[ri:]...)

	// The capacity phase keeps the open loop's read-to-publish ratio.
	every := int(rate * publishGap.Seconds())
	rev := uint64(nPub)
	for i, r := range draw(nCap) {
		if i > 0 && i%every == 0 {
			rev++
			st.capacity = append(st.capacity, publish(rev, 0))
		}
		st.capacity = append(st.capacity, r)
	}
	return st, nil
}

// sizeFor returns how many open-loop and capacity requests a run needs.
func (w *workload) sizeFor(openDur, capDur time.Duration) (nOpen, nCap int) {
	nOpen = int(math.Ceil(w.rate * openDur.Seconds()))
	nCap = int(math.Ceil(w.capRate * capDur.Seconds()))
	return nOpen, nCap
}
