package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"ikrq/internal/model"
	"ikrq/internal/search"
)

// The checker recomputes every answered request in process with
// Engine.Search / SearchSequence over the same bake the daemon serves and
// requires the served routes to be byte-identical. The route JSON is built
// here from search.Route, independently of the server's wire conversion, so
// a fault in encoding is caught as well as one in search.

type routeJSON struct {
	Doors   []int     `json:"doors"`
	Entered []int     `json:"entered"`
	KP      []int     `json:"kp"`
	Dist    float64   `json:"dist"`
	Rho     float64   `json:"rho"`
	Sims    []float64 `json:"sims"`
	Psi     float64   `json:"psi"`
}

type sequenceRouteJSON struct {
	Waypoints []int       `json:"waypoints"`
	Doors     []int       `json:"doors"`
	Entered   []int       `json:"entered"`
	LegRho    []float64   `json:"leg_rho"`
	LegSims   [][]float64 `json:"leg_sims"`
	Rho       float64     `json:"rho"`
	Dist      float64     `json:"dist"`
	Psi       float64     `json:"psi"`
}

func ints[T ~int32](xs []T) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// servedAnswer is the part of a query response the checker compares.
type servedAnswer struct {
	Routes json.RawMessage `json:"routes"`
	Stats  struct {
		Truncated bool `json:"truncated"`
	} `json:"stats"`
}

type checker struct {
	eng *search.Engine // opened from the bake; no result cache
	st  *streams

	mu   sync.Mutex
	memo map[[2]int][]byte // (pool key, conditions state) -> routes JSON

	failures atomic.Int64
	msgMu    sync.Mutex
	msgs     []string
}

func newChecker(eng *search.Engine, st *streams) *checker {
	return &checker{eng: eng, st: st, memo: make(map[[2]int][]byte)}
}

func (c *checker) fail(format string, args ...any) {
	c.failures.Add(1)
	c.msgMu.Lock()
	defer c.msgMu.Unlock()
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// expected returns the routes JSON the op must be answered with when the
// bus holds cond (ignored by ops that carry their own overlay).
func (c *checker) expected(o *op, cond *model.Conditions) ([]byte, error) {
	state := 0
	if !o.explicit && !cond.Empty() {
		state = 1
	}
	if o.key >= 0 {
		c.mu.Lock()
		b, ok := c.memo[[2]int{o.key, state}]
		c.mu.Unlock()
		if ok {
			return b, nil
		}
	}
	var v any
	switch o.kind {
	case opRoute:
		req := *o.route
		if !o.explicit {
			req.Conditions = cond
		}
		opt, err := search.OptionsFor(o.variant)
		if err != nil {
			return nil, err
		}
		opt.MaxExpansions = maxExpansions
		res, err := c.eng.Search(req, opt)
		if err != nil {
			return nil, err
		}
		routes := make([]routeJSON, len(res.Routes))
		for i, r := range res.Routes {
			routes[i] = routeJSON{Doors: ints(r.Doors), Entered: ints(r.Entered), KP: ints(r.KP), Dist: r.Dist, Rho: r.Rho, Sims: r.Sims, Psi: r.Psi}
		}
		v = routes
	case opSequence:
		req := *o.seq
		if !o.explicit {
			req.Conditions = cond
		}
		res, err := c.eng.SearchSequence(req)
		if err != nil {
			return nil, err
		}
		routes := make([]sequenceRouteJSON, len(res.Routes))
		for i, r := range res.Routes {
			routes[i] = sequenceRouteJSON{
				Waypoints: ints(r.Waypoints), Doors: ints(r.Doors), Entered: ints(r.Entered),
				LegRho: r.LegRho, LegSims: r.LegSims, Rho: r.Rho, Dist: r.Dist, Psi: r.Psi,
			}
		}
		v = routes
	default:
		return nil, fmt.Errorf("no answer to recompute for a %v", o.kind)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if o.key >= 0 {
		c.mu.Lock()
		c.memo[[2]int{o.key, state}] = b
		c.mu.Unlock()
	}
	return b, nil
}

// matches reports whether routes equal the op's answer under any revision
// in lo..hi (revisions alternate between two overlays, so at most two
// recomputations decide it).
func (c *checker) matches(o *op, routes []byte, lo, hi uint64) (bool, error) {
	if o.explicit || c.st.subscriber == nil {
		hi = lo
	}
	for rev := lo; rev <= hi && rev <= lo+1; rev++ {
		want, err := c.expected(o, c.st.conditionsAt(rev))
		if err != nil {
			return false, err
		}
		if bytes.Equal(want, routes) {
			return true, nil
		}
	}
	return false, nil
}

// checkResult validates one served request.
func (c *checker) checkResult(phase string, i int, o *op, r *result) {
	switch {
	case r.err != nil:
		c.fail("%s #%d %v: transport error: %v", phase, i, o.kind, r.err)
		return
	case r.status != http.StatusOK:
		c.fail("%s #%d %v: status %d: %s", phase, i, o.kind, r.status, bytes.TrimSpace(r.body))
		return
	}
	if o.kind == opPublish {
		var pr struct {
			Revision uint64 `json:"revision"`
		}
		if err := json.Unmarshal(r.body, &pr); err != nil || pr.Revision != o.rev {
			c.fail("%s #%d publish: want revision %d, got %s", phase, i, o.rev, bytes.TrimSpace(r.body))
		}
		return
	}
	var ans servedAnswer
	if err := json.Unmarshal(r.body, &ans); err != nil {
		c.fail("%s #%d %v: undecodable or truncated body: %v", phase, i, o.kind, err)
		return
	}
	if ans.Stats.Truncated {
		c.fail("%s #%d %v: stats.truncated", phase, i, o.kind)
		return
	}
	ok, err := c.matches(o, ans.Routes, r.lo, r.hi)
	switch {
	case err != nil:
		c.fail("%s #%d %v: recomputing: %v", phase, i, o.kind, err)
	case !ok:
		c.fail("%s #%d %v: routes differ from the in-process answer (revisions %d..%d)", phase, i, o.kind, r.lo, r.hi)
	}
}

// checkAll validates results (parallel over the CPUs, outside any timed
// window).
func (c *checker) checkAll(phase string, ops []op, results []result) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(results) {
					return
				}
				c.checkResult(phase, i, &ops[i], &results[i])
			}
		}()
	}
	wg.Wait()
}

// checkEvents validates every SSE event against the subscriber's answer
// under its revision (or a later one, if another publish landed before the
// re-run read the bus) and returns the event-id gaps (coalesced publishes).
func (c *checker) checkEvents(events []sseEvent, lastRev uint64) (gaps uint64) {
	var prev uint64
	for i, ev := range events {
		if ev.event != "result" {
			c.fail("sse #%d: event %q: %s", i, ev.event, ev.data)
			continue
		}
		if i > 0 {
			if ev.id <= prev {
				c.fail("sse #%d: id %d does not advance past %d", i, ev.id, prev)
			} else {
				gaps += ev.id - prev - 1
			}
		}
		prev = ev.id
		var ans servedAnswer
		if err := json.Unmarshal(ev.data, &ans); err != nil {
			c.fail("sse #%d: undecodable data: %v", i, err)
			continue
		}
		ok, err := c.matches(c.st.subscriber, ans.Routes, ev.id, lastRev)
		switch {
		case err != nil:
			c.fail("sse #%d: recomputing: %v", i, err)
		case !ok:
			c.fail("sse #%d: pushed routes differ from the in-process answer at revision %d", i, ev.id)
		}
	}
	if lastRev > prev {
		gaps += lastRev - prev
	}
	return gaps
}
