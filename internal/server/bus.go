package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ikrq/internal/model"
)

// The conditions bus is the live-venue half of the v2 API: operators publish
// a venue-wide Conditions revision (PUT /v2/venues/{venue}/conditions) and
// clients hold an SSE stream per route (POST /v2/venues/{venue}/subscribe)
// that re-runs their query on every revision and pushes a re-route event only
// when the served result actually changed. Queries that carry no explicit
// conditions overlay — on /v1 and /v2 alike — run under the venue's
// published revision, which is what makes a pushed re-route byte-comparable
// to a fresh query. DESIGN.md §14 states the delivery semantics.

// conditionsBus tracks the published overlay, its revision counter and the
// live subscriber set per venue. Revisions only exist bus-side: the registry
// is told to invalidate result caches on publish, engines never see the
// counter.
type conditionsBus struct {
	mu     sync.Mutex
	venues map[string]*busVenue
	subs   int
}

// busVenue is one venue's bus state. Published Conditions are immutable by
// contract: the bus hands the same pointer to every query.
type busVenue struct {
	rev  uint64
	cond *model.Conditions
	subs map[chan struct{}]struct{}
}

func newConditionsBus() *conditionsBus {
	return &conditionsBus{venues: make(map[string]*busVenue)}
}

func (b *conditionsBus) venueLocked(name string) *busVenue {
	v := b.venues[name]
	if v == nil {
		v = &busVenue{subs: make(map[chan struct{}]struct{})}
		b.venues[name] = v
	}
	return v
}

// state returns the venue's revision and overlay together.
func (b *conditionsBus) state(name string) (uint64, *model.Conditions) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v := b.venues[name]; v != nil {
		return v.rev, v.cond
	}
	return 0, nil
}

// publish installs cond as the venue's overlay, bumps the revision and wakes
// every subscriber. Notify channels are buffered one deep, so a subscriber
// mid-re-run coalesces a burst of publishes into one more wake-up instead of
// queueing unboundedly.
func (b *conditionsBus) publish(name string, cond *model.Conditions) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := b.venueLocked(name)
	v.rev++
	v.cond = cond
	for ch := range v.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return v.rev
}

// subscribe registers a notify channel under the server-wide cap and
// returns a cancel that must run exactly once. Every publish after
// registration wakes the channel, so a caller that reads the bus state after
// subscribing misses no revision.
func (b *conditionsBus) subscribe(name string, maxSubs int) (ch chan struct{}, cancel func(), ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if maxSubs > 0 && b.subs >= maxSubs {
		return nil, nil, false
	}
	v := b.venueLocked(name)
	ch = make(chan struct{}, 1)
	v.subs[ch] = struct{}{}
	b.subs++
	cancel = func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, live := v.subs[ch]; live {
			delete(v.subs, ch)
			b.subs--
		}
	}
	return ch, cancel, true
}

// subscribers returns the live stream count (a /debug/vars gauge).
func (b *conditionsBus) subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.subs
}

// decodeConditions reads a conditions publish body strictly: unknown fields
// are malformed, and an empty body is the empty overlay. The reader is
// expected to be MaxBytesReader-bounded by the caller.
func decodeConditions(body io.Reader) (*ConditionsWire, *apiError) {
	var cw ConditionsWire
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cw); err != nil && !errors.Is(err, io.EOF) {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(codeRequestTooLarge, "request body exceeds the %d-byte limit", tooBig.Limit)
		}
		return nil, errf(codeMalformedRequest, "decoding request body: %v", err)
	}
	return &cw, nil
}

// handleConditions is PUT /v2/venues/{venue}/conditions: validate the
// overlay against the venue's doors, publish it as the next revision,
// invalidate the venue's result cache and wake subscribers. An empty body
// (or an empty overlay) clears the published conditions.
func (s *Server) handleConditions(w http.ResponseWriter, r *http.Request) {
	cw, apiErr := decodeConditions(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if apiErr != nil {
		s.writeAPIError(w, apiErr)
		return
	}

	name := r.PathValue("venue")
	h, apiErr := s.acquireVenue(name)
	if apiErr != nil {
		s.writeAPIError(w, apiErr)
		return
	}
	numDoors := h.Engine().Space().NumDoors()
	h.Release()
	cond, err := cw.Overlay()
	if err == nil {
		err = cond.Validate(numDoors)
	}
	if err != nil {
		s.writeError(w, codeInvalidRequest, "%v", err)
		return
	}

	rev := s.bus.publish(name, cond)
	// The registry seam every engine-state change goes through: no cached
	// result survives a conditions revision.
	_ = s.reg.InvalidateResults(name)
	s.met.publishes.Add(1)

	resp := ConditionsPublishResponse{Venue: name, Revision: rev}
	if cond != nil {
		resp.Closed = len(cond.ClosedDoors())
		resp.Delayed = len(cond.DelayedDoors())
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSubscribe is POST /v2/venues/{venue}/subscribe: the body is a v2
// query envelope, the response an SSE stream. The first "result" event is
// the envelope's current answer; each conditions revision re-runs the
// envelope and pushes another "result" only when the response JSON changed.
// Streams are bounded by Config.MaxSubscribers, close after
// Config.SubscribeMaxAge, and end when drain begins. Subscriber re-runs do
// not pass admission control — their concurrency is bounded by the
// subscriber cap instead of the query semaphore.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, codeDraining, "server is draining; not accepting new subscriptions")
		return
	}
	env, apiErr := decodeEnvelope(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if apiErr != nil {
		s.writeAPIError(w, apiErr)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		s.met.serverErrs.Add(1)
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	name := r.PathValue("venue")
	ch, cancel, ok := s.bus.subscribe(name, s.cfg.MaxSubscribers)
	if !ok {
		s.writeError(w, codeSubscriberLimit,
			"venue subscriptions are at the %d-stream limit; retry later", s.cfg.MaxSubscribers)
		return
	}
	defer cancel()

	// The initial run doubles as request validation: any defect surfaces as
	// a structured error before the stream commits to 200.
	rev, payload, lastSig, apiErr := s.runSubscribed(r.Context(), name, env)
	if apiErr != nil {
		if apiErr == clientGone {
			s.met.disconnects.Add(1)
			return
		}
		s.writeAPIError(w, apiErr)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "result", rev, payload)
	flusher.Flush()

	maxAge := time.NewTimer(s.cfg.SubscribeMaxAge)
	defer maxAge.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.draining:
			return
		case <-maxAge.C:
			return
		case <-ch:
		}
		rev, payload, sig, apiErr := s.runSubscribed(r.Context(), name, env)
		if apiErr != nil {
			if apiErr != clientGone {
				// A terminal error event beats a silent close: the client
				// learns the subscription is dead and why.
				if b, err := json.Marshal(wireError(apiErr.code, "%s", apiErr.msg)); err == nil {
					writeSSE(w, "error", rev, b)
					flusher.Flush()
				}
			}
			return
		}
		if !bytes.Equal(sig, lastSig) {
			lastSig = sig
			// Count before writing: a client that has read the event must
			// already see it in the pushes counter.
			s.met.pushes.Add(1)
			writeSSE(w, "result", rev, payload)
			flusher.Flush()
		}
	}
}

// runSubscribed executes the subscribed envelope against the venue's current
// engine (re-acquired per run, so reloads and swaps are picked up) under the
// published conditions of revision rev, read from the bus in one step so an
// event's id always names the revision its routes were computed under.
// payload is the response JSON — the same document a fresh POST
// /v2/venues/{venue}/query would serve — and sig the routes-only portion the
// change detector compares: stats carry wall-clock timings that differ on
// every run, so comparing full payloads would push a "re-route" on every
// revision even when the served routes are unchanged.
func (s *Server) runSubscribed(ctx context.Context, name string, env *queryEnvelope) (rev uint64, payload, sig []byte, _ *apiError) {
	rev, published := s.bus.state(name)
	h, apiErr := s.acquireVenue(name)
	if apiErr != nil {
		return rev, nil, nil, apiErr
	}
	defer h.Release()
	res, routes, apiErr := s.runEnvelope(ctx, h, env, published)
	if apiErr != nil {
		return rev, nil, nil, apiErr
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return rev, nil, nil, errf(codeVenueUnavailable, "encoding result: %v", err)
	}
	sig, err = json.Marshal(routes)
	if err != nil {
		return rev, nil, nil, errf(codeVenueUnavailable, "encoding result: %v", err)
	}
	return rev, payload, sig, nil
}

// writeSSE frames one server-sent event. Payloads are single-line JSON
// (json.Marshal emits no newlines), so no data-line splitting is needed.
func writeSSE(w io.Writer, event string, id uint64, data []byte) {
	fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, data)
}
