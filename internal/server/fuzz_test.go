package server

import (
	"bytes"
	"context"
	"maps"
	"slices"
	"testing"

	"ikrq/internal/search"
)

// FuzzV2Envelope feeds arbitrary bodies through the v2 query decode and the
// query core, runEnvelope: variant resolution, wire caps,
// BuildRequest/BuildSequenceRequest against the fixture engine, and the
// engine's request validation. The core runs under an already-cancelled
// context, which stops it after its last check and before any search,
// so clientGone marks an envelope that passed every check. Nothing may
// panic, every rejection must be a taxonomy code with a 4xx status, and an
// accepted envelope must respect the wire caps.
func FuzzV2Envelope(f *testing.F) {
	for _, tc := range envelopeGolden {
		f.Add([]byte(tc.body))
	}
	ml := &memLoader{engines: map[string]*search.Engine{"mall": testEngine(f)}}
	reg := NewRegistry(0)
	reg.SetLoader(ml.load)
	if err := reg.Add(VenueConfig{Name: "mall", Path: "mall.ikrq"}); err != nil {
		f.Fatal(err)
	}
	s := New(reg, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, body []byte) {
		env, apiErr := decodeEnvelope(bytes.NewReader(body))
		if apiErr == nil {
			h, err := reg.Acquire("mall")
			if err != nil {
				t.Fatal(err)
			}
			_, _, apiErr = s.runEnvelope(ctx, h, env, nil)
			h.Release()
		}
		switch {
		case apiErr == nil:
			t.Fatalf("a query ran under a cancelled context: %q", body)
		case apiErr == clientGone:
			checkWireCaps(t, env)
		default:
			checkClientError(t, apiErr)
		}
	})
}

// FuzzConditionsPublish feeds arbitrary bodies through the publish
// endpoint's strict decode and overlay conversion. Nothing may panic,
// decode rejections must be 4xx taxonomy codes, and an overlay that
// validates against the venue must close and delay exactly the door IDs the
// wire named — the invariant an unchecked int-to-DoorID conversion broke
// ({"close":[4294967301]} published a closure of door 5).
func FuzzConditionsPublish(f *testing.F) {
	for _, tc := range publishRejects {
		f.Add([]byte(tc.body))
	}
	// The publishes TestConditionsPublish expects to succeed.
	for _, body := range []string{`{"close":[4]}`, `{"delay":{"2":5}}`, `{"close":[3,4]}`, ``} {
		f.Add([]byte(body))
	}
	numDoors := testEngine(f).Space().NumDoors()

	f.Fuzz(func(t *testing.T, body []byte) {
		cw, apiErr := decodeConditions(bytes.NewReader(body))
		if apiErr != nil {
			checkClientError(t, apiErr)
			return
		}
		cond, err := cw.Overlay()
		if err != nil || cond.Validate(numDoors) != nil {
			return // handleConditions answers invalid_request
		}
		var closed, delayed []int
		for _, d := range cond.ClosedDoors() {
			closed = append(closed, int(d))
		}
		for _, d := range cond.DelayedDoors() {
			delayed = append(delayed, int(d))
		}
		wantClosed := slices.Compact(slices.Sorted(slices.Values(cw.Close)))
		wantDelayed := slices.Sorted(maps.Keys(cw.Delay))
		if !slices.Equal(closed, wantClosed) || !slices.Equal(delayed, wantDelayed) {
			t.Fatalf("overlay closes %v and delays %v; the wire sent %v and %v (%q)",
				closed, delayed, wantClosed, wantDelayed, body)
		}
	})
}

// checkClientError asserts a rejection is a taxonomy code with a 4xx
// status: a request defect, never a server fault.
func checkClientError(t *testing.T, e *apiError) {
	t.Helper()
	info, ok := errorTaxonomy[e.code]
	if !ok || info.status < 400 || info.status >= 500 {
		t.Fatalf("rejection %v is not a 4xx taxonomy code", e)
	}
}

// checkWireCaps asserts an accepted envelope stays within the wire caps.
func checkWireCaps(t *testing.T, env *queryEnvelope) {
	t.Helper()
	if env.Route != nil {
		if n := len(env.Route.Keywords); n > maxWireKeywords {
			t.Fatalf("accepted a route query with %d keywords", n)
		}
		return
	}
	if n := len(env.Sequence.Legs); n > maxWireLegs {
		t.Fatalf("accepted a sequence with %d legs", n)
	}
	for j, leg := range env.Sequence.Legs {
		if n := len(leg.Keywords); n > maxWireKeywords {
			t.Fatalf("accepted sequence leg %d with %d keywords", j, n)
		}
	}
}
