package search

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// trippingContext reports Canceled starting from the (after+1)-th Err()
// call — a deterministic way to cancel "mid-search" without timers:
// SearchContext checks Err() once up front, and the searcher polls it from
// the main loop, so after=1 lets validation pass and trips the first poll.
type trippingContext struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *trippingContext) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestSearchContextCancelledUpFront(t *testing.T) {
	e := testMall(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.SearchContext(ctx, oracleCases[0].req, Options{Algorithm: ToE})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: res=%v err=%v", res, err)
	}
}

// TestSearchContextCancelledMidRunNoLeak cancels every variant mid-run and
// then asserts the pooled scratch still produces results identical to a
// fresh engine — a cancelled query must release its scratch cleanly, not
// poison the pool.
func TestSearchContextCancelledMidRunNoLeak(t *testing.T) {
	e := testMall(t)
	fresh := testMall(t)
	for _, v := range Variants() {
		opt, err := OptionsFor(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range oracleCases {
			ctx := &trippingContext{Context: context.Background(), after: 1}
			res, err := e.SearchContext(ctx, tc.req, opt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s/%s: err = %v, want Canceled", v, tc.name, err)
			}
			if res != nil {
				t.Fatalf("%s/%s: cancelled search leaked a result", v, tc.name)
			}
		}
		// The same engine (and therefore the same recycled scratch) must
		// now answer exactly like an engine that never saw a cancellation.
		for _, tc := range oracleCases {
			got, err := e.Search(tc.req, opt)
			if err != nil {
				t.Fatalf("%s/%s: post-cancel search: %v", v, tc.name, err)
			}
			want, err := fresh.Search(tc.req, opt)
			if err != nil {
				t.Fatalf("%s/%s: fresh search: %v", v, tc.name, err)
			}
			if !reflect.DeepEqual(got.Routes, want.Routes) {
				t.Errorf("%s/%s: post-cancellation routes differ from fresh engine", v, tc.name)
			}
		}
	}
}

// TestSearchContextConcurrentCancellations interleaves cancelled and live
// queries on one shared engine under the race detector.
func TestSearchContextConcurrentCancellations(t *testing.T) {
	e := testMall(t)
	want, err := e.Search(oracleCases[0].req, Options{Algorithm: KoE})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				ctx := &trippingContext{Context: context.Background(), after: 1}
				res, err := e.SearchContext(ctx, oracleCases[0].req, Options{Algorithm: KoE})
				if res != nil || !errors.Is(err, context.Canceled) {
					t.Errorf("goroutine %d: res=%v err=%v", i, res, err)
				}
				return
			}
			res, err := e.SearchContext(context.Background(), oracleCases[0].req, Options{Algorithm: KoE})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(res.Routes, want.Routes) {
				t.Errorf("goroutine %d: routes differ under concurrent cancellations", i)
			}
		}()
	}
	wg.Wait()
}

func TestSearchBatchContextCancelled(t *testing.T) {
	e := testMall(t)
	reqs := batchCases()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := e.SearchBatchContext(ctx, reqs, Options{Algorithm: ToE}, BatchOptions{Workers: 4})
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error does not carry Canceled: %v", err)
	}
	for i, r := range results {
		if r != nil {
			t.Fatalf("slot %d has a result despite pre-cancelled context", i)
		}
	}
	// The background-context path is unaffected.
	results, err = e.SearchBatch(reqs[:4], Options{Algorithm: ToE}, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("slot %d nil after clean batch", i)
		}
	}
}
